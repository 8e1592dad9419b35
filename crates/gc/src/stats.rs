//! Collection-side statistics (experiments E3–E5).

/// Counters accumulated across all collections of a run. All fields are
/// `u64` so multi-run aggregation ([`GcStats::merge`]) and export stay
/// uniform; pause totals in nanoseconds fit u64 for ~584 years.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Collections performed.
    pub collections: u64,
    /// Activation records visited across all collections.
    pub frames_visited: u64,
    /// Frame-routine invocations (Fig. 2's loop body).
    pub routine_invocations: u64,
    /// Slots traced by frame routines.
    pub slots_traced: u64,
    /// Root words scanned by the tagged collector.
    pub words_scanned_tagged: u64,
    /// type_gc_routine closure nodes built during collection (§3).
    pub rt_nodes_built: u64,
    /// Dynamic-chain steps taken by the Appel backward type resolution
    /// (E5's quadratic term).
    pub chain_steps: u64,
    /// Descriptor bytes decoded by the interpreted method (E4).
    pub desc_bytes_read: u64,
    /// Closure environments reconstructed while tracing closure values.
    pub closure_envs_built: u64,
    /// GC-time cache lookups that returned a memoized result: a routine,
    /// or a whole frame step of the forward walk.
    pub rt_cache_hits: u64,
    /// GC-time cache lookups that had to evaluate (or trace a frame on the
    /// plain path and record its step).
    pub rt_cache_misses: u64,
    /// Trace-plan lookups that found an already-lowered plan.
    pub plan_hits: u64,
    /// Trace-plan lookups that triggered lowering.
    pub plan_misses: u64,
    /// Trace plans lowered (every miss compiles exactly one plan).
    pub plans_compiled: u64,
    /// Nursery-only (minor) collections. Zero on single-generation heaps;
    /// `minor_collections + major_collections == collections` otherwise.
    pub minor_collections: u64,
    /// Full semispace flips (major collections).
    pub major_collections: u64,
    /// Words promoted from the nursery into tenured space by minor
    /// collections.
    pub promoted_words: u64,
    /// Nursery words that did not survive their minor collection — the
    /// generational hypothesis's payoff, measured.
    pub died_young_words: u64,
    /// Total collection pause time in nanoseconds.
    pub pause_nanos: u64,
}

impl GcStats {
    /// Mean pause in nanoseconds (0 when no collection ran). Pause
    /// *distributions* (p50/p90/p99/max) come from the observability
    /// layer's pause histogram; this mean remains for cheap reporting.
    pub fn mean_pause_nanos(&self) -> f64 {
        if self.collections == 0 {
            0.0
        } else {
            self.pause_nanos as f64 / self.collections as f64
        }
    }

    /// Accumulates another run's counters into `self` (multi-run
    /// profiling).
    pub fn merge(&mut self, other: &GcStats) {
        self.collections += other.collections;
        self.frames_visited += other.frames_visited;
        self.routine_invocations += other.routine_invocations;
        self.slots_traced += other.slots_traced;
        self.words_scanned_tagged += other.words_scanned_tagged;
        self.rt_nodes_built += other.rt_nodes_built;
        self.chain_steps += other.chain_steps;
        self.desc_bytes_read += other.desc_bytes_read;
        self.closure_envs_built += other.closure_envs_built;
        self.rt_cache_hits += other.rt_cache_hits;
        self.rt_cache_misses += other.rt_cache_misses;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.plans_compiled += other.plans_compiled;
        self.minor_collections += other.minor_collections;
        self.major_collections += other.major_collections;
        self.promoted_words += other.promoted_words;
        self.died_young_words += other.died_young_words;
        self.pause_nanos += other.pause_nanos;
    }

    /// A copy with the wall-clock-dependent field zeroed — the
    /// deterministic part, comparable across repeated runs (used by the
    /// observability differential tests).
    pub fn deterministic(&self) -> GcStats {
        GcStats {
            pause_nanos: 0,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_pause_handles_zero() {
        assert_eq!(GcStats::default().mean_pause_nanos(), 0.0);
        let s = GcStats {
            collections: 4,
            pause_nanos: 400,
            ..GcStats::default()
        };
        assert_eq!(s.mean_pause_nanos(), 100.0);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = GcStats {
            collections: 1,
            frames_visited: 2,
            routine_invocations: 3,
            slots_traced: 4,
            words_scanned_tagged: 5,
            rt_nodes_built: 6,
            chain_steps: 7,
            desc_bytes_read: 8,
            closure_envs_built: 9,
            rt_cache_hits: 10,
            rt_cache_misses: 11,
            plan_hits: 12,
            plan_misses: 13,
            plans_compiled: 14,
            minor_collections: 15,
            major_collections: 16,
            promoted_words: 17,
            died_young_words: 18,
            pause_nanos: 19,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            GcStats {
                collections: 2,
                frames_visited: 4,
                routine_invocations: 6,
                slots_traced: 8,
                words_scanned_tagged: 10,
                rt_nodes_built: 12,
                chain_steps: 14,
                desc_bytes_read: 16,
                closure_envs_built: 18,
                rt_cache_hits: 20,
                rt_cache_misses: 22,
                plan_hits: 24,
                plan_misses: 26,
                plans_compiled: 28,
                minor_collections: 30,
                major_collections: 32,
                promoted_words: 34,
                died_young_words: 36,
                pause_nanos: 38,
            }
        );
    }

    #[test]
    fn deterministic_drops_only_pause() {
        let a = GcStats {
            collections: 3,
            pause_nanos: 999,
            slots_traced: 7,
            ..GcStats::default()
        };
        let d = a.deterministic();
        assert_eq!(d.pause_nanos, 0);
        assert_eq!(d.collections, 3);
        assert_eq!(d.slots_traced, 7);
    }
}
