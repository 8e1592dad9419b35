//! Semispace copying heap with an optional generational nursery tier.
//!
//! Two tenured spaces with disjoint absolute address ranges: space A
//! starts at `HEAP_BASE`, space B at `SPACE_B_BASE = HEAP_BASE + 2^40`.
//! Each space has its own backing store, so one space can grow (see
//! [`Heap::reserve_to_space`]) without moving the other — growth never
//! relocates live objects, only a subsequent collection does. The mutator
//! bump-allocates in from-space; a collector copies live objects into
//! to-space and calls [`Heap::flip`].
//!
//! **Forwarding without tags.** A copying collector must detect
//! already-copied objects. Tag-free objects have no header word to spare,
//! so the heap keeps a GC-time side bitmap over from-space: forwarding an
//! object sets its bit and overwrites its first word with the new address.
//! The bitmap is collector-private transient state (1 bit per from-space
//! word, cleared at flip), not per-object mutator-visible space, so the
//! paper's "no heap-space overhead" claim is preserved; its size is
//! reported in [`HeapStats`]. The tagged collector uses the same mechanism
//! for uniformity (a real tagged runtime would smuggle the forwarding
//! pointer into the header).
//!
//! **One relocation protocol.** Both collectors move an object with two
//! calls. [`Heap::relocated`] answers whether the current collection has
//! already dealt with an address (it needs no move, or it was forwarded)
//! and where it lives now; on `None`, [`Heap::evacuate`] copies the object
//! to its destination for the current phase and forwards it. Each call
//! decodes the address region once, and both are `#[inline]` so the
//! collector's copy loop compiles them into its own body.
//!
//! **Generational tier.** [`Heap::new_generational`] fronts the two
//! tenured spaces with a bump-pointer *nursery* at its own disjoint base,
//! `NURSERY_BASE = HEAP_BASE + 2^41` (an eden plus two survivor halves).
//! All mutator allocation lands in eden; nursery exhaustion triggers a
//! **minor** collection — the collector traces the same roots it always
//! does, but relocation is phase-dispatched here: tenured objects count
//! as already relocated ([`Heap::relocated`] returns them as they are),
//! and nursery survivors are copied to the idle survivor half or
//! **promoted** into tenured from-space once their age exceeds
//! `promote_after`. Because the surface language is immutable, no
//! tenured object can ever point into the nursery, so minors need *no
//! write barrier and no remembered set* — the zero-per-object-overhead
//! claim survives intact. **Major** collections remain the semispace
//! flip, with the nursery as an extra source region so a major empties
//! it. The phase is bracketed by [`Heap::begin_collection`] /
//! [`Heap::finish_collection`]; both collectors run minors and majors
//! through the same relocation code.

use crate::stats::{HeapStats, OccupancySample};
use crate::word::{Addr, Word, HEAP_BASE};

/// Absolute base address of space B. Spaces are bounded by
/// [`MAX_SPACE_WORDS`], so the two address ranges can never meet.
pub const SPACE_B_BASE: u64 = HEAP_BASE + (1 << 40);

/// Absolute base address of the nursery (generational mode only). Space
/// B's maximal extent ends exactly here, so the three ranges are
/// disjoint and a single comparison classifies any heap word's region.
pub const NURSERY_BASE: u64 = HEAP_BASE + (2 << 40);

/// Hard upper bound on the size of one semispace, in words (8 TiB).
pub const MAX_SPACE_WORDS: usize = 1 << 40;

/// Which collection (if any) the heap is relocating for. Phase-dispatch
/// lets [`Heap::relocated`] / [`Heap::evacuate`] serve minor and major
/// cycles through identical collector code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Mutator running (or a legacy un-bracketed major, which behaves
    /// identically to `Major`).
    Idle,
    /// Minor: sources = nursery, destinations = survivor-to + tenured
    /// from-space.
    Minor,
    /// Major: sources = tenured from-space ∪ nursery, destination =
    /// to-space.
    Major,
}

/// A semispace copying heap over raw words, optionally fronted by a
/// bump-pointer nursery.
#[derive(Debug, Clone)]
pub struct Heap {
    space_a: Vec<Word>,
    space_b: Vec<Word>,
    /// True when space A (low addresses) is the current from-space.
    a_is_from: bool,
    /// Bump pointer within from-space (offset).
    from_alloc: usize,
    /// Bump pointer within to-space (offset), valid during collection.
    to_alloc: usize,
    /// Forwarding bitmap over from-space words (collection-time only).
    forwarded: Vec<u64>,
    /// Nursery backing store (empty in single-generation mode): eden at
    /// `[0, eden_cap)`, survivor half A at `[eden_cap, eden_cap + sur)`,
    /// survivor half B at `[eden_cap + sur, eden_cap + 2*sur)`.
    nursery: Vec<Word>,
    eden_cap: usize,
    survivor_cap: usize,
    /// Bump pointer within eden.
    eden_alloc: usize,
    /// True when survivor half A is the occupied (from) half.
    sur_a_is_from: bool,
    /// Bump pointer within the occupied survivor half.
    sur_from_alloc: usize,
    /// Bump pointer within the idle survivor half (minor-time only).
    sur_to_alloc: usize,
    /// Minor-survival counts at nursery head offsets (side table, like
    /// the forwarding bitmap: collector-private, no per-object space).
    ages: Vec<u8>,
    /// Forwarding bitmap over nursery words (collection-time only).
    nursery_forwarded: Vec<u64>,
    /// Survive this many minors in the survivor space before promoting.
    /// 0 ⇒ promote on first survival (no survivor halves at all).
    promote_after: u32,
    phase: Phase,
    /// Nursery words occupied when the current minor began.
    minor_begin_used: usize,
    /// Words promoted to tenured by the current minor.
    minor_promoted: usize,
    /// The current/last minor had to tenure a young object because the
    /// survivor half overflowed. Such a promotion is not monotone in
    /// age, so it can manufacture a tenured→nursery edge; the caller
    /// must follow up with a major in the same pause.
    minor_sur_overflow: bool,
    last_promoted_words: u64,
    last_died_young_words: u64,
    pub stats: HeapStats,
}

impl Heap {
    /// Creates a single-generation heap with `cap` words per semispace.
    pub fn new(cap: usize) -> Heap {
        assert!(
            cap <= MAX_SPACE_WORDS,
            "semispace larger than {MAX_SPACE_WORDS} words"
        );
        Heap {
            space_a: vec![0; cap],
            space_b: vec![0; cap],
            a_is_from: true,
            from_alloc: 0,
            to_alloc: 0,
            forwarded: vec![0; cap.div_ceil(64)],
            nursery: Vec::new(),
            eden_cap: 0,
            survivor_cap: 0,
            eden_alloc: 0,
            sur_a_is_from: true,
            sur_from_alloc: 0,
            sur_to_alloc: 0,
            ages: Vec::new(),
            nursery_forwarded: Vec::new(),
            promote_after: 0,
            phase: Phase::Idle,
            minor_begin_used: 0,
            minor_promoted: 0,
            minor_sur_overflow: false,
            last_promoted_words: 0,
            last_died_young_words: 0,
            stats: HeapStats::default(),
        }
    }

    /// Creates a generational heap: `cap` tenured words per semispace
    /// plus a nursery of `nursery_words`. With `promote_after == 0` the
    /// whole nursery is eden and every minor survivor promotes
    /// immediately; otherwise a quarter of the nursery is carved into
    /// two survivor halves and objects promote after surviving
    /// `promote_after` minors there.
    pub fn new_generational(cap: usize, nursery_words: usize, promote_after: u32) -> Heap {
        assert!(nursery_words > 0, "nursery must be non-empty");
        assert!(
            nursery_words <= MAX_SPACE_WORDS,
            "nursery larger than {MAX_SPACE_WORDS} words"
        );
        let mut h = Heap::new(cap);
        let survivor_cap = if promote_after == 0 {
            0
        } else {
            nursery_words / 4
        };
        let total = nursery_words
            .saturating_sub(2 * survivor_cap)
            .max(1)
            .saturating_add(2 * survivor_cap);
        h.eden_cap = total - 2 * survivor_cap;
        h.survivor_cap = survivor_cap;
        h.nursery = vec![0; total];
        h.ages = vec![0; total];
        h.nursery_forwarded = vec![0; total.div_ceil(64)];
        h.promote_after = promote_after;
        h
    }

    /// Is this heap running a generational nursery?
    pub fn generational(&self) -> bool {
        !self.nursery.is_empty()
    }

    /// Eden capacity in words (0 in single-generation mode).
    pub fn eden_capacity(&self) -> usize {
        self.eden_cap
    }

    /// Capacity of one survivor half in words.
    pub fn survivor_capacity(&self) -> usize {
        self.survivor_cap
    }

    /// The configured promotion threshold.
    pub fn promote_after(&self) -> u32 {
        self.promote_after
    }

    /// Did the last minor tenure a young object because the survivor
    /// half overflowed? Such promotions can leave tenured→nursery edges
    /// behind; the collection driver must run a major in the same pause
    /// to restore the barrier-free invariant before the mutator resumes.
    pub fn minor_survivor_overflowed(&self) -> bool {
        self.minor_sur_overflow
    }

    /// Live nursery words: eden bump plus the occupied survivor half.
    pub fn nursery_used(&self) -> usize {
        self.eden_alloc + self.sur_from_alloc
    }

    /// Nursery words visible to the mutator (eden plus one survivor
    /// half; the other half is copy reserve).
    pub fn nursery_capacity(&self) -> usize {
        self.eden_cap + self.survivor_cap
    }

    #[inline]
    fn space_from(&self) -> &Vec<Word> {
        if self.a_is_from {
            &self.space_a
        } else {
            &self.space_b
        }
    }

    #[inline]
    fn space_to(&self) -> &Vec<Word> {
        if self.a_is_from {
            &self.space_b
        } else {
            &self.space_a
        }
    }

    /// Words in the current from-space (the mutator's view of capacity).
    pub fn capacity(&self) -> usize {
        self.space_from().len()
    }

    /// Words in the current to-space (differs from [`Heap::capacity`]
    /// only between a growth reservation and the next flip).
    pub fn to_space_capacity(&self) -> usize {
        self.space_to().len()
    }

    /// Words currently allocated in from-space.
    pub fn used(&self) -> usize {
        self.from_alloc
    }

    /// Words still available without a collection.
    pub fn available(&self) -> usize {
        self.capacity() - self.from_alloc
    }

    /// An instantaneous occupancy reading (serve-mode timeline samples):
    /// current from-space usage and capacity plus the live words left by
    /// the most recent collection, and the nursery's own bump/capacity
    /// in generational mode. Deterministic — derived purely from
    /// allocator state, never the wall clock.
    pub fn occupancy(&self) -> OccupancySample {
        OccupancySample {
            heap_words: self.from_alloc as u64,
            capacity_words: self.capacity() as u64,
            live_words: self.stats.live_words_after_last_gc,
            nursery_words: self.nursery_used() as u64,
            nursery_capacity_words: self.nursery_capacity() as u64,
        }
    }

    // "from" is the semispace, not a conversion.
    #[allow(clippy::wrong_self_convention)]
    #[inline]
    fn from_base(&self) -> u64 {
        if self.a_is_from {
            HEAP_BASE
        } else {
            SPACE_B_BASE
        }
    }

    #[inline]
    fn to_base(&self) -> u64 {
        if self.a_is_from {
            SPACE_B_BASE
        } else {
            HEAP_BASE
        }
    }

    /// The absolute span `[base, base + used)` of live from-space data.
    /// Every valid tag-free pointer falls inside this span; the heap
    /// verifier checks object extents against it.
    pub fn live_span(&self) -> (u64, u64) {
        let b = self.from_base();
        (b, b + self.from_alloc as u64)
    }

    /// The live span of the allocated region containing `a`, or `None`
    /// if `a` points at no allocated region: tenured from-space, the
    /// eden prefix, or the occupied survivor half — exactly the regions
    /// the mutator may legally hold pointers into between collections.
    pub fn span_of(&self, a: Addr) -> Option<(u64, u64)> {
        if a.0 >= NURSERY_BASE {
            let off = (a.0 - NURSERY_BASE) as usize;
            if off < self.eden_alloc {
                return Some((NURSERY_BASE, NURSERY_BASE + self.eden_alloc as u64));
            }
            let sf = self.sur_from_off();
            if off >= sf && off < sf + self.sur_from_alloc {
                return Some((
                    NURSERY_BASE + sf as u64,
                    NURSERY_BASE + (sf + self.sur_from_alloc) as u64,
                ));
            }
            return None;
        }
        let (lo, hi) = self.live_span();
        if a.0 >= lo && a.0 < hi {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Offset of the occupied (from) survivor half within the nursery.
    fn sur_from_off(&self) -> usize {
        if self.sur_a_is_from {
            self.eden_cap
        } else {
            self.eden_cap + self.survivor_cap
        }
    }

    /// Offset of the idle (to) survivor half within the nursery.
    #[inline]
    fn sur_to_off(&self) -> usize {
        if self.sur_a_is_from {
            self.eden_cap + self.survivor_cap
        } else {
            self.eden_cap
        }
    }

    /// Is the address inside the current from-space?
    pub fn in_from(&self, a: Addr) -> bool {
        let b = self.from_base();
        a.0 >= b && a.0 < b + self.space_from().len() as u64
    }

    /// Is the address inside the nursery range?
    pub fn in_nursery(&self, a: Addr) -> bool {
        a.0 >= NURSERY_BASE
    }

    /// Region (0 = space A, 1 = space B, 2 = nursery) and word index.
    #[inline]
    fn index(a: Addr) -> (u8, usize) {
        debug_assert!(a.0 >= HEAP_BASE, "address {a:?} below heap base");
        if a.0 >= NURSERY_BASE {
            (2, (a.0 - NURSERY_BASE) as usize)
        } else if a.0 >= SPACE_B_BASE {
            (1, (a.0 - SPACE_B_BASE) as usize)
        } else {
            (0, (a.0 - HEAP_BASE) as usize)
        }
    }

    /// Allocates `n` words. Single-generation heaps bump in from-space;
    /// generational heaps bump in eden. An object too big for eden
    /// allocates directly in tenured from-space, but **only while the
    /// nursery is empty** — its fields were relocated to tenured by the
    /// forced major that emptied the nursery, so the no-tenured→nursery
    /// -edge invariant is preserved. Returns `None` when a collection
    /// (minor, major, or a forced major for an oversize object) is
    /// needed first.
    pub fn alloc(&mut self, n: usize) -> Option<Addr> {
        if self.generational() {
            if self.eden_alloc + n <= self.eden_cap {
                let a = Addr(NURSERY_BASE + self.eden_alloc as u64);
                self.eden_alloc += n;
                self.stats.allocations += 1;
                self.stats.words_allocated += n as u64;
                return Some(a);
            }
            if n > self.eden_cap
                && self.nursery_used() == 0
                && self.from_alloc + n <= self.capacity()
            {
                let a = Addr(self.from_base() + self.from_alloc as u64);
                self.from_alloc += n;
                self.stats.allocations += 1;
                self.stats.words_allocated += n as u64;
                return Some(a);
            }
            return None;
        }
        if self.from_alloc + n > self.capacity() {
            return None;
        }
        let a = Addr(self.from_base() + self.from_alloc as u64);
        self.from_alloc += n;
        self.stats.allocations += 1;
        self.stats.words_allocated += n as u64;
        Some(a)
    }

    /// Reads the word at `a + off`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the heap.
    #[inline]
    pub fn read(&self, a: Addr, off: u16) -> Word {
        let (region, i) = Self::index(a.offset(off));
        match region {
            0 => self.space_a[i],
            1 => self.space_b[i],
            _ => self.nursery[i],
        }
    }

    /// Writes the word at `a + off`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the heap.
    #[inline]
    pub fn write(&mut self, a: Addr, off: u16, w: Word) {
        let (region, i) = Self::index(a.offset(off));
        match region {
            0 => self.space_a[i] = w,
            1 => self.space_b[i] = w,
            _ => self.nursery[i] = w,
        }
    }

    // ---- collection support -------------------------------------------

    /// Brackets the start of a collection. `minor` runs a nursery-only
    /// cycle (generational heaps only; the caller must have ensured
    /// tenured from-space can absorb the whole nursery — the
    /// full-promotion worst case). `!minor` prepares a major: in
    /// generational mode the to-space reservation is widened to cover
    /// worst-case nursery evacuation on top of the tenured live set.
    ///
    /// Legacy single-generation callers may skip the bracket entirely
    /// and use `relocated`/`evacuate`/`flip` directly — `Idle`
    /// behaves exactly like `Major`.
    pub fn begin_collection(&mut self, minor: bool) {
        assert_eq!(self.phase, Phase::Idle, "collection already in progress");
        if minor {
            debug_assert!(self.generational(), "minor collection without a nursery");
            debug_assert!(
                self.available() >= self.nursery_used(),
                "minor collection without full-promotion headroom"
            );
            self.phase = Phase::Minor;
            self.minor_begin_used = self.nursery_used();
            self.minor_promoted = 0;
            self.minor_sur_overflow = false;
        } else {
            self.phase = Phase::Major;
            if self.generational() {
                let need = self.from_alloc + self.nursery_used();
                if self.to_space_capacity() < need {
                    self.reserve_to_space(need);
                }
            }
        }
    }

    /// Where the object at `a` lives once the current collection has
    /// relocated it: `a` itself when it needs no move (inside to-space
    /// during a major, inside the survivor-to prefix or tenured during a
    /// minor — a minor never moves tenured objects), its forwarding
    /// address when [`Heap::evacuate`] already copied it, and `None` when
    /// it still has to be copied. Decodes the address region once.
    #[inline]
    pub fn relocated(&self, a: Addr) -> Option<Addr> {
        let (region, i) = Self::index(a);
        if region == 2 {
            if self.phase == Phase::Minor {
                let st = self.sur_to_off();
                if i >= st && i < st + self.sur_to_alloc {
                    return Some(a);
                }
            }
            return (self.nursery_forwarded[i / 64] & (1 << (i % 64)) != 0)
                .then(|| Addr(self.nursery[i]));
        }
        if self.phase == Phase::Minor {
            return Some(a);
        }
        // Space B is to-space exactly when space A is from-space.
        if (region == 1) == self.a_is_from && i < self.space_to().len() {
            return Some(a);
        }
        debug_assert!(self.in_from(a), "relocation source {a:?} not in from-space");
        (self.forwarded[i / 64] & (1 << (i % 64)) != 0).then(|| Addr(self.space_from()[i]))
    }

    /// Copies the `n`-word object at `src` to its destination for the
    /// current phase and forwards it there, returning the new address.
    /// During a major, `src` is in from-space or the nursery and the
    /// destination is to-space. During a minor, `src` is in the nursery
    /// and the destination is the survivor-to half — or tenured
    /// from-space, when the object's age exceeds `promote_after`, the
    /// survivor half is absent (`promote_after == 0`), or it would
    /// overflow. Forwarding sets the source's bit in its region's bitmap
    /// and overwrites the source's first word with the new address. Call
    /// it only on an object [`Heap::relocated`] returned `None` for.
    ///
    /// # Panics
    ///
    /// Panics if the destination overflows (cannot happen for majors:
    /// live ≤ allocated and to-space covers from-space plus the nursery
    /// at collection time; cannot happen for minors: the caller
    /// checked full-promotion headroom before starting one).
    #[inline]
    pub fn evacuate(&mut self, src: Addr, n: usize) -> Addr {
        let (region, i) = Self::index(src);
        let dst = match self.phase {
            Phase::Minor => self.copy_minor(region, i, n),
            _ => self.copy_major(src, region, i, n),
        };
        self.stats.objects_copied += 1;
        self.stats.words_copied += n as u64;
        if region == 2 {
            self.nursery_forwarded[i / 64] |= 1 << (i % 64);
            self.nursery[i] = dst.0;
        } else {
            self.forwarded[i / 64] |= 1 << (i % 64);
            if region == 0 {
                self.space_a[i] = dst.0;
            } else {
                self.space_b[i] = dst.0;
            }
        }
        dst
    }

    #[inline]
    fn copy_major(&mut self, src: Addr, region: u8, si: usize, n: usize) -> Addr {
        assert!(
            self.to_alloc + n <= self.space_to().len(),
            "to-space overflow"
        );
        debug_assert!(
            region == 2 || self.in_from(src),
            "evacuated object {src:?} not in from-space"
        );
        let di = self.to_alloc;
        let (from, to) = if self.a_is_from {
            (&self.space_a, &mut self.space_b)
        } else {
            (&self.space_b, &mut self.space_a)
        };
        let source = if region == 2 { &self.nursery } else { from };
        to[di..di + n].copy_from_slice(&source[si..si + n]);
        self.to_alloc += n;
        Addr(self.to_base() + di as u64)
    }

    fn copy_minor(&mut self, region: u8, si: usize, n: usize) -> Addr {
        assert_eq!(region, 2, "minor collection asked to copy a tenured object");
        let age = self.ages[si].saturating_add(1);
        // Promotion by age is monotone: in an immutable heap a child is
        // always at least as old as its parent, so an age-promoted
        // parent's children age-promote too and no tenured→nursery edge
        // can form. Survivor-half overflow breaks that monotonicity (it
        // tenures a *young* object whose older children may already sit
        // in the survivor half), so it is flagged and the caller
        // escalates to a major within the same pause.
        let by_age = u32::from(age) > self.promote_after || self.survivor_cap == 0;
        let overflow = !by_age && self.sur_to_alloc + n > self.survivor_cap;
        if overflow {
            self.minor_sur_overflow = true;
        }
        if by_age || overflow {
            assert!(
                self.from_alloc + n <= self.capacity(),
                "tenured overflow during minor collection"
            );
            let di = self.from_alloc;
            let from = if self.a_is_from {
                &mut self.space_a
            } else {
                &mut self.space_b
            };
            from[di..di + n].copy_from_slice(&self.nursery[si..si + n]);
            self.from_alloc += n;
            self.minor_promoted += n;
            Addr(self.from_base() + di as u64)
        } else {
            let di = self.sur_to_off() + self.sur_to_alloc;
            self.nursery.copy_within(si..si + n, di);
            self.ages[di] = age;
            self.sur_to_alloc += n;
            Addr(NURSERY_BASE + di as u64)
        }
    }

    /// Grows to-space to at least `words` (capped at [`MAX_SPACE_WORDS`]).
    /// Returns `true` if the space grew. Absolute addresses are stable
    /// across growth — each space has a fixed base — so live pointers
    /// need no relocation; the next collection simply copies into the
    /// larger space. Call outside a collection (`to_alloc == 0`), then
    /// collect, then call again to grow the other space.
    pub fn reserve_to_space(&mut self, words: usize) -> bool {
        let words = words.min(MAX_SPACE_WORDS);
        let cur = self.space_to().len();
        if words <= cur {
            return false;
        }
        if self.a_is_from {
            self.space_b.resize(words, 0);
        } else {
            self.space_a.resize(words, 0);
        }
        true
    }

    /// Brackets the end of a collection. A minor swaps the survivor
    /// halves, resets eden, clears the nursery's forwarding bitmap and
    /// dead ages, and records promoted/died-young words. A major (or a
    /// legacy un-bracketed flip) performs the semispace [`Heap::flip`]
    /// and, in generational mode, additionally resets the whole nursery
    /// (a major evacuates it into to-space).
    pub fn finish_collection(&mut self) {
        match self.phase {
            Phase::Minor => {
                let survived = self.sur_to_alloc + self.minor_promoted;
                self.last_promoted_words = self.minor_promoted as u64;
                self.last_died_young_words = self.minor_begin_used.saturating_sub(survived) as u64;
                self.nursery_forwarded.iter_mut().for_each(|w| *w = 0);
                // Ages only matter at live head offsets; clear the spans
                // that just died (eden prefix + old survivor-from half).
                self.ages[..self.eden_alloc].fill(0);
                let sf = self.sur_from_off();
                self.ages[sf..sf + self.sur_from_alloc].fill(0);
                self.eden_alloc = 0;
                self.sur_a_is_from = !self.sur_a_is_from;
                self.sur_from_alloc = self.sur_to_alloc;
                self.sur_to_alloc = 0;
                self.phase = Phase::Idle;
                self.stats.collections += 1;
                self.stats.live_words_after_last_gc =
                    (self.from_alloc + self.sur_from_alloc) as u64;
                self.stats.peak_live_words = self
                    .stats
                    .peak_live_words
                    .max(self.stats.live_words_after_last_gc);
            }
            _ => {
                self.last_promoted_words = 0;
                self.last_died_young_words = 0;
                self.minor_sur_overflow = false;
                self.phase = Phase::Idle;
                if self.generational() {
                    // A major evacuated the nursery into to-space; empty
                    // it before the flip computes live-word statistics.
                    self.eden_alloc = 0;
                    self.sur_from_alloc = 0;
                    self.sur_to_alloc = 0;
                    self.ages.fill(0);
                    self.nursery_forwarded.iter_mut().for_each(|w| *w = 0);
                }
                self.flip();
            }
        }
    }

    /// Words promoted to tenured by the most recent minor collection
    /// (0 after a major).
    pub fn last_promoted_words(&self) -> u64 {
        self.last_promoted_words
    }

    /// Nursery words reclaimed (died young) by the most recent minor
    /// collection (0 after a major).
    pub fn last_died_young_words(&self) -> u64 {
        self.last_died_young_words
    }

    /// Finishes a (major) collection: to-space becomes from-space, the
    /// bitmap is cleared (and resized to cover the new from-space),
    /// statistics are updated.
    pub fn flip(&mut self) {
        self.a_is_from = !self.a_is_from;
        self.from_alloc = self.to_alloc;
        self.to_alloc = 0;
        let bitmap_words = self.space_from().len().div_ceil(64);
        self.forwarded.clear();
        self.forwarded.resize(bitmap_words, 0);
        self.stats.collections += 1;
        self.stats.live_words_after_last_gc = (self.from_alloc + self.sur_from_alloc) as u64;
        self.stats.peak_live_words = self
            .stats
            .peak_live_words
            .max(self.stats.live_words_after_last_gc);
    }

    /// Checks the quiescent generational invariants: phase idle, bumps
    /// within bounds, survivor-to half empty, no nursery forwarding bit
    /// leaked past a collection. Cheap (no heap walk — the verifier
    /// does the pointer scan); returns the first violation found.
    pub fn check_generational_invariants(&self) -> Result<(), String> {
        if self.phase != Phase::Idle {
            return Err("heap phase not idle between collections".into());
        }
        if !self.generational() {
            return Ok(());
        }
        if self.eden_alloc > self.eden_cap {
            return Err(format!(
                "eden bump {} exceeds capacity {}",
                self.eden_alloc, self.eden_cap
            ));
        }
        if self.sur_from_alloc > self.survivor_cap {
            return Err(format!(
                "survivor bump {} exceeds capacity {}",
                self.sur_from_alloc, self.survivor_cap
            ));
        }
        if self.sur_to_alloc != 0 {
            return Err(format!(
                "survivor to-half not empty between collections: {} words",
                self.sur_to_alloc
            ));
        }
        if self.nursery_forwarded.iter().any(|&w| w != 0) {
            return Err("nursery forwarding bits leaked past a collection".into());
        }
        Ok(())
    }

    /// Transient collector-side memory (forwarding bitmaps plus the
    /// nursery age table), in bytes.
    pub fn collector_side_bytes(&self) -> usize {
        self.forwarded.len() * 8 + self.nursery_forwarded.len() * 8 + self.ages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bumps_and_reports_exhaustion() {
        let mut h = Heap::new(8);
        let a = h.alloc(4).unwrap();
        assert_eq!(a, Addr(HEAP_BASE));
        let b = h.alloc(4).unwrap();
        assert_eq!(b, Addr(HEAP_BASE + 4));
        assert!(h.alloc(1).is_none());
        assert_eq!(h.stats.allocations, 2);
        assert_eq!(h.stats.words_allocated, 8);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut h = Heap::new(16);
        let a = h.alloc(3).unwrap();
        h.write(a, 0, 10);
        h.write(a, 2, 30);
        assert_eq!(h.read(a, 0), 10);
        assert_eq!(h.read(a, 2), 30);
    }

    #[test]
    fn flip_swaps_spaces() {
        let mut h = Heap::new(16);
        let a = h.alloc(2).unwrap();
        h.write(a, 0, 42);
        let na = h.evacuate(a, 2);
        h.flip();
        assert!(h.in_from(na));
        assert!(!h.in_from(a));
        assert_eq!(h.read(na, 0), 42);
        assert_eq!(h.used(), 2);
        assert_eq!(h.stats.collections, 1);
        // New allocations land after the survivors.
        let b = h.alloc(1).unwrap();
        assert!(h.in_from(b));
        assert_ne!(b, na);
    }

    #[test]
    fn forwarding_bitmap_clears_on_flip() {
        let mut h = Heap::new(16);
        let a = h.alloc(1).unwrap();
        let na = h.evacuate(a, 1);
        h.flip();
        // `na` occupies the same offset class; it must not read as
        // forwarded in the new from-space.
        assert!(h.relocated(na).is_none());
    }

    #[test]
    fn two_collections_round_trip_data() {
        let mut h = Heap::new(8);
        let a = h.alloc(2).unwrap();
        h.write(a, 0, 1);
        h.write(a, 1, 2);
        let n1 = h.evacuate(a, 2);
        h.flip();
        let n2 = h.evacuate(n1, 2);
        h.flip();
        assert_eq!(h.read(n2, 0), 1);
        assert_eq!(h.read(n2, 1), 2);
        assert_eq!(h.stats.collections, 2);
    }

    #[test]
    fn spaces_have_disjoint_fixed_bases() {
        let mut h = Heap::new(8);
        let a = h.alloc(8).unwrap();
        assert_eq!(a, Addr(HEAP_BASE));
        let na = h.evacuate(a, 8);
        assert_eq!(na, Addr(SPACE_B_BASE));
        h.flip();
        // After the flip new allocations come from space B's range.
        let b = h.alloc(0).unwrap();
        assert!(b.0 >= SPACE_B_BASE);
        // The nursery range sits above both spaces' maximal extents.
        assert_eq!(NURSERY_BASE, SPACE_B_BASE + MAX_SPACE_WORDS as u64);
    }

    #[test]
    fn growth_preserves_addresses_across_collection() {
        let mut h = Heap::new(4);
        let a = h.alloc(4).unwrap();
        h.write(a, 0, 11);
        h.write(a, 3, 44);
        assert!(h.alloc(1).is_none());
        // Grow to-space, "collect" the one live object, flip, then grow
        // the other space: capacity doubles and data survives in place.
        assert!(h.reserve_to_space(8));
        let na = h.evacuate(a, 4);
        h.flip();
        assert!(h.reserve_to_space(8));
        assert_eq!(h.capacity(), 8);
        assert_eq!(h.to_space_capacity(), 8);
        assert_eq!(h.read(na, 0), 11);
        assert_eq!(h.read(na, 3), 44);
        let b = h.alloc(4).unwrap();
        assert!(h.in_from(b));
        // Shrinking is a no-op.
        assert!(!h.reserve_to_space(2));
    }

    #[test]
    fn forwarding_bitmap_resizes_with_growth() {
        let mut h = Heap::new(64);
        let a = h.alloc(64).unwrap();
        h.reserve_to_space(256);
        h.evacuate(a, 64);
        h.flip();
        // Bitmap now covers the 256-word from-space.
        assert_eq!(h.collector_side_bytes(), 256usize.div_ceil(64) * 8);
        let b = h.alloc(150).unwrap();
        let _ = b;
        assert!(h.relocated(Addr(h.live_span().0 + 199)).is_none());
    }

    // ---- generational tier --------------------------------------------

    #[test]
    fn generational_alloc_lands_in_nursery() {
        let mut h = Heap::new_generational(64, 16, 0);
        let a = h.alloc(4).unwrap();
        assert!(h.in_nursery(a));
        assert_eq!(a, Addr(NURSERY_BASE));
        assert_eq!(h.nursery_used(), 4);
        assert_eq!(h.used(), 0);
        h.write(a, 1, 99);
        assert_eq!(h.read(a, 1), 99);
    }

    // ---- the relocation protocol ----------------------------------------

    #[test]
    fn major_evacuates_from_space_and_forwards() {
        let mut h = Heap::new(16);
        let a = h.alloc(2).unwrap();
        h.write(a, 0, 7);
        h.write(a, 1, 8);
        h.begin_collection(false);
        assert_eq!(h.relocated(a), None, "not yet copied");
        let na = h.evacuate(a, 2);
        assert!(na.0 >= SPACE_B_BASE, "copied into to-space");
        assert_eq!(h.relocated(a), Some(na), "the forward after evacuate");
        assert_eq!(h.relocated(na), Some(na), "to-space needs no move");
        assert_eq!((h.read(na, 0), h.read(na, 1)), (7, 8));
        assert_eq!((h.stats.objects_copied, h.stats.words_copied), (1, 2));
        h.finish_collection();
        assert!(h.in_from(na));
        assert_eq!(h.relocated(na), None, "forwarding ends with the flip");
    }

    #[test]
    fn generational_major_evacuates_the_nursery_into_to_space() {
        let mut h = Heap::new_generational(64, 16, 1);
        let a = h.alloc(2).unwrap();
        h.write(a, 0, 13);
        assert!(h.in_nursery(a));
        h.begin_collection(false);
        assert_eq!(h.relocated(a), None);
        let b = h.evacuate(a, 2);
        assert!(!h.in_nursery(b));
        assert_eq!(
            h.relocated(a),
            Some(b),
            "nursery forwards through its own bitmap"
        );
        assert_eq!(h.relocated(b), Some(b));
        h.finish_collection();
        assert_eq!(h.nursery_used(), 0);
        assert_eq!(h.read(b, 0), 13);
        assert!(h.in_from(b));
        h.check_generational_invariants().unwrap();
    }

    #[test]
    fn promote_after_zero_promotes_on_first_survival() {
        let mut h = Heap::new_generational(64, 16, 0);
        assert_eq!(h.survivor_capacity(), 0);
        let a = h.alloc(2).unwrap();
        h.write(a, 0, 5);
        h.write(a, 1, 6);
        let _dead = h.alloc(3).unwrap();
        h.begin_collection(true);
        let b = h.evacuate(a, 2);
        assert_eq!(h.relocated(a), Some(b));
        assert!(!h.in_nursery(b));
        assert!(h.in_from(b));
        h.finish_collection();
        assert_eq!(h.last_promoted_words(), 2);
        assert_eq!(h.last_died_young_words(), 3);
        assert_eq!(h.read(b, 0), 5);
        assert_eq!(h.nursery_used(), 0);
        assert_eq!(h.used(), 2);
        h.check_generational_invariants().unwrap();
    }

    #[test]
    fn minor_evacuates_to_the_survivor_half_then_promotes_by_age() {
        let mut h = Heap::new_generational(64, 16, 1);
        assert!(h.survivor_capacity() > 0);
        let a = h.alloc(2).unwrap();
        h.write(a, 0, 77);
        // First minor: age 1 <= promote_after, stays in the survivor.
        h.begin_collection(true);
        let b = h.evacuate(a, 2);
        assert!(h.in_nursery(b));
        assert_eq!(h.relocated(a), Some(b));
        assert_eq!(
            h.relocated(b),
            Some(b),
            "the survivor-to prefix needs no move"
        );
        h.finish_collection();
        assert!(!h.minor_survivor_overflowed());
        assert_eq!(h.last_promoted_words(), 0);
        assert_eq!(h.nursery_used(), 2);
        h.check_generational_invariants().unwrap();
        // Second minor: age 2 > promote_after, promotes to tenured.
        h.begin_collection(true);
        assert_eq!(h.relocated(b), None, "last minor's survivors move again");
        let c = h.evacuate(b, 2);
        assert!(h.in_from(c));
        h.finish_collection();
        assert_eq!(h.last_promoted_words(), 2);
        assert_eq!(h.read(c, 0), 77);
        assert_eq!(h.nursery_used(), 0);
        h.check_generational_invariants().unwrap();
    }

    #[test]
    fn oversize_alloc_goes_tenured_only_when_nursery_empty() {
        let mut h = Heap::new_generational(64, 8, 0);
        // Oversize while nursery empty: lands tenured directly.
        let big = h.alloc(10).unwrap();
        assert!(h.in_from(big));
        // Small allocations still land in the nursery.
        let small = h.alloc(2).unwrap();
        assert!(h.in_nursery(small));
        // Oversize with a non-empty nursery must refuse (forces a major).
        assert!(h.alloc(10).is_none());
    }

    #[test]
    fn minor_treats_tenured_as_already_relocated() {
        let mut h = Heap::new_generational(64, 8, 0);
        let t = h.alloc(10).unwrap(); // oversize -> tenured
        let n = h.alloc(2).unwrap();
        h.begin_collection(true);
        assert_eq!(h.relocated(t), Some(t), "tenured counts as relocated as-is");
        assert_eq!(h.relocated(n), None);
        let m = h.evacuate(n, 2);
        assert_eq!(h.relocated(m), Some(m));
        assert_eq!(h.relocated(n), Some(m));
        h.finish_collection();
        assert_eq!(h.used(), 12, "the tenured object stayed where it was");
        h.check_generational_invariants().unwrap();
    }

    #[test]
    fn survivor_overflow_promotes_regardless_of_age() {
        // nursery 16, promote_after 1 -> survivor halves of 4 words.
        let mut h = Heap::new_generational(64, 16, 1);
        let cap = h.survivor_capacity();
        let a = h.alloc(cap + 2).unwrap();
        h.begin_collection(true);
        let b = h.evacuate(a, cap + 2);
        assert!(h.in_from(b));
        assert_eq!(h.relocated(a), Some(b));
        assert!(
            h.minor_survivor_overflowed(),
            "overflow is flagged for escalation"
        );
        h.finish_collection();
        assert!(h.minor_survivor_overflowed(), "the flag outlives the minor");
        assert_eq!(h.last_promoted_words(), (cap + 2) as u64);
        h.check_generational_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "to-space overflow")]
    fn to_space_overflow_panics() {
        let mut h = Heap::new(4);
        let a = h.alloc(4).unwrap();
        h.begin_collection(false);
        // A corrupt size claims more words than to-space holds.
        h.evacuate(a, 5);
    }

    #[test]
    fn span_of_covers_all_live_regions() {
        let mut h = Heap::new_generational(64, 16, 0);
        let big = h.alloc(20).unwrap(); // tenured
        let small = h.alloc(2).unwrap(); // eden
        assert!(h.span_of(big).is_some());
        assert!(h.span_of(small).is_some());
        // Past the eden bump: not a live region.
        assert!(h.span_of(Addr(NURSERY_BASE + 10)).is_none());
        // Past the tenured bump: not a live region.
        assert!(h.span_of(Addr(HEAP_BASE + 30)).is_none());
    }

    #[test]
    fn occupancy_reports_nursery() {
        let mut h = Heap::new_generational(64, 16, 1);
        h.alloc(3).unwrap();
        let s = h.occupancy();
        assert_eq!(s.nursery_words, 3);
        assert_eq!(s.nursery_capacity_words, h.nursery_capacity() as u64);
        let t = Heap::new(8).occupancy();
        assert_eq!(t.nursery_words, 0);
        assert_eq!(t.nursery_capacity_words, 0);
    }
}
