//! Activation-record stack layout (Figure 1).
//!
//! One contiguous word array holds every frame:
//!
//! ```text
//! fp + 0 : saved_fp      (dynamic link; NO_FP for the bottom frame)
//! fp + 1 : return word   (call-site id + destination slot in the caller)
//! fp + 2 : slot 0
//!        : ...
//! ```
//!
//! The return word is the moral equivalent of the paper's return address:
//! it identifies the *call instruction in the caller* at which that frame
//! is suspended, and therefore (via the program's gc_word table) both the
//! caller's `frame_gc_routine` and — through `CallSite::fn_id` — which
//! function the caller is. "We are able to determine the garbage
//! collection routines for each local variable by using the return
//! address pointers that are already stored in the stack" (§1.1).
//!
//! A collection need not decode the whole chain. Each thread keeps a
//! *floor*: no frame based below it has run or been popped since the
//! last collection, so each such frame has the same base, function,
//! call site and incoming type routines as then. Each stack keeps a
//! [`WalkRecord`] of that collection's forward walk.
//! [`walk_frames_into`] decodes only the frames at or above the floor;
//! the collector replays the record's prefix below it.
//!
//! The record is kept in runs, not frames, so its cost is per run: a
//! recursion of any depth is one run, keeping a prefix cuts at most one
//! run, and `WalkRecord::push` appends a whole run of decoded frames
//! in one step, merging it into the newest run it continues.

use crate::cache::FrameState;
use tfgc_ir::{CallSiteId, FnId, IrProgram, Slot};
use tfgc_runtime::Word;

/// Words of frame header before the slots.
pub const FRAME_HDR: usize = 2;

/// Sentinel dynamic link of the bottom frame.
pub const NO_FP: Word = u64::MAX;

/// Return word of the bottom frame (never consulted).
pub const MAIN_RET: Word = u64::MAX;

/// Packs a return word: the call site suspended at, and the caller slot
/// that receives the result.
pub fn pack_ret(site: CallSiteId, dst: Slot) -> Word {
    u64::from(site.0) | (u64::from(dst.0) << 32)
}

/// Unpacks a return word.
pub fn unpack_ret(w: Word) -> (CallSiteId, Slot) {
    (CallSiteId(w as u32), Slot((w >> 32) as u16))
}

/// One decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Base index of the frame in the stack array.
    pub fp: usize,
    /// The function whose activation record this is.
    pub fn_id: FnId,
    /// The call site this frame is suspended at (its gc_word key).
    pub site: CallSiteId,
}

/// Decodes the dynamic chain, newest frame first — the traversal order of
/// Figure 2's collector loop. `current_site` is the site the newest frame
/// is executing (the allocation that triggered the collection, or the
/// call a task is suspended at).
pub fn walk_frames(
    stack: &[Word],
    top_fp: usize,
    current_site: CallSiteId,
    prog: &IrProgram,
) -> Vec<FrameInfo> {
    let mut frames = Vec::new();
    walk_frames_into(&mut frames, stack, top_fp, current_site, 0, prog);
    frames
}

/// Decodes the frames based at or above `floor` into a caller-owned
/// vector, newest first: the collector reuses one scratch vector across
/// collections, and decodes only what ran since its last walk. Clears
/// `out` first. Returns the base of the newest frame below the floor,
/// where decoding stopped, or `None` when it reached the bottom frame.
pub fn walk_frames_into(
    out: &mut Vec<FrameInfo>,
    stack: &[Word],
    top_fp: usize,
    current_site: CallSiteId,
    floor: usize,
    prog: &IrProgram,
) -> Option<usize> {
    out.clear();
    let mut fp = top_fp;
    let mut site = current_site;
    while fp >= floor {
        let fn_id = prog.site(site).fn_id;
        out.push(FrameInfo { fp, fn_id, site });
        let saved = stack[fp];
        if saved == NO_FP {
            return None;
        }
        let (caller_site, _) = unpack_ret(stack[fp + 1]);
        fp = saved as usize;
        site = caller_site;
    }
    Some(fp)
}

/// A stack's record of its last forward walk, oldest frame first, in
/// runs of consecutive activations of one call site entered with one
/// state. `Vm::enter` places each callee frame right after its caller's,
/// so such a run is evenly spaced, and a recursion of any depth is one
/// run. A run is extended only by a frame whose base the decode saw at
/// the run's stride.
///
/// The owner clears the record whenever the stack is replaced; a record
/// is only ever read below the floor its stack has kept since the walk
/// that wrote it.
#[derive(Debug, Clone, Default)]
pub struct WalkRecord {
    runs: Vec<Run>,
}

/// `count` activations of `site`, based `stride` words apart from `base`
/// up, each entered with `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub base: usize,
    pub count: usize,
    /// Zero while the run holds one frame.
    pub stride: usize,
    pub site: CallSiteId,
    pub fn_id: FnId,
    pub state: FrameState,
    /// The activations' memoized frame step; `None` for frames that read
    /// a type parameter from their own slots, which each build a fresh one.
    pub step: Option<u32>,
}

impl Run {
    /// One activation, `fr`, entered with `state`.
    pub fn one(fr: &FrameInfo, state: FrameState, step: Option<u32>) -> Run {
        Run {
            base: fr.fp,
            count: 1,
            stride: 0,
            site: fr.site,
            fn_id: fr.fn_id,
            state,
            step,
        }
    }

    /// The run's `k`-th frame, oldest first.
    pub fn frame(&self, k: usize) -> FrameInfo {
        FrameInfo {
            fp: self.base + k * self.stride,
            fn_id: self.fn_id,
            site: self.site,
        }
    }

    /// Adds the frame based at `fp` when it lies one stride above the
    /// run's newest frame: a second frame sets the run's stride, later
    /// ones must keep it. The caller has checked the frame's site, state
    /// and step.
    pub fn grow(&mut self, fp: usize) -> bool {
        let stride = match self.count {
            1 => fp.saturating_sub(self.base),
            _ => self.stride,
        };
        let grows = stride > 0 && fp == self.base + self.count * stride;
        if grows {
            self.stride = stride;
            self.count += 1;
        }
        grows
    }

    /// Grows the run by the decoded frames above it (`newer`, newest
    /// first, so taken from its end) while each repeats the run's site
    /// one stride higher. Each such frame enters with `out`, the state
    /// the run's step hands on: when that is not the run's own state, no
    /// frame joins. Returns how many joined.
    pub fn grow_over(&mut self, newer: &[FrameInfo], out: FrameState) -> usize {
        if out != self.state {
            return 0;
        }
        let site = self.site;
        newer
            .iter()
            .rev()
            .take_while(|fr| fr.site == site && self.grow(fr.fp))
            .count()
    }
}

impl WalkRecord {
    /// Forgets every frame: the next walk decodes the whole stack.
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// The recorded runs, oldest first.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Base of the newest recorded frame.
    pub(crate) fn newest_base(&self) -> Option<usize> {
        self.runs.last().map(|r| r.base + (r.count - 1) * r.stride)
    }

    /// Drops every frame based at or above `floor`.
    pub(crate) fn keep_below(&mut self, floor: usize) {
        while let Some(run) = self.runs.last_mut() {
            if run.base >= floor {
                self.runs.pop();
                continue;
            }
            if run.stride > 0 {
                run.count = run.count.min((floor - run.base).div_ceil(run.stride));
            }
            break;
        }
    }

    /// Appends a run of walked frames on top of the record, exactly as
    /// appending its frames one at a time would: the newest run grows by
    /// each frame that repeats its site, state and step one stride above
    /// its newest frame.
    pub(crate) fn push(&mut self, mut run: Run) {
        if let Some(last) = self.runs.last_mut() {
            let repeats = last.site == run.site && last.state == run.state && last.step == run.step;
            if repeats && last.grow(run.base) {
                if run.count == 1 || run.stride == last.stride {
                    last.count += run.count - 1;
                    return;
                }
                // The run's other frames are off `last`'s stride.
                run.base += run.stride;
                run.count -= 1;
                if run.count == 1 {
                    run.stride = 0;
                }
            }
        }
        self.runs.push(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ret_word_roundtrip() {
        let w = pack_ret(CallSiteId(123456), Slot(789));
        assert_eq!(unpack_ret(w), (CallSiteId(123456), Slot(789)));
    }

    fn frame(fp: usize, site: u32) -> FrameInfo {
        FrameInfo {
            fp,
            fn_id: FnId(site),
            site: CallSiteId(site),
        }
    }

    #[test]
    fn a_record_keeps_evenly_spaced_repeats_as_one_run() {
        let mut r = WalkRecord::default();
        r.push(Run::one(&frame(0, 1), FrameState::None, None));
        for k in 0..100 {
            r.push(Run::one(&frame(4 + 5 * k, 2), FrameState::None, Some(7)));
        }
        // A gap in the bases starts a run, as does another step.
        r.push(Run::one(&frame(600, 2), FrameState::None, Some(7)));
        r.push(Run::one(&frame(605, 2), FrameState::None, Some(8)));
        assert_eq!(r.runs().len(), 4);
        let frames = |r: &WalkRecord| r.runs().iter().map(|run| run.count).sum::<usize>();
        assert_eq!(frames(&r), 103);
        assert_eq!((r.runs()[1].count, r.runs()[1].stride), (100, 5));
        assert_eq!(r.newest_base(), Some(605));

        // The floor cuts the run of 100 after its frame based at 249.
        r.keep_below(250);
        assert_eq!(r.runs().len(), 2);
        assert_eq!(frames(&r), 1 + 50);
        assert_eq!(r.newest_base(), Some(249));
        r.keep_below(249);
        assert_eq!(r.newest_base(), Some(244));
        r.keep_below(4);
        assert_eq!(r.newest_base(), Some(0));
        r.keep_below(0);
        assert_eq!(r.newest_base(), None);
    }

    #[test]
    fn appending_a_run_builds_the_runs_its_frames_would() {
        let run = |base, count, stride, site, step| Run {
            base,
            count,
            stride,
            site: CallSiteId(site),
            fn_id: FnId(site),
            state: FrameState::None,
            step: Some(step),
        };
        let by_frames = |r: &mut WalkRecord, run: &Run| {
            for k in 0..run.count {
                r.push(Run::one(&run.frame(k), run.state, run.step));
            }
        };
        // A recursion of 100 frames at 4, 9, ..., 499, cut by a floor,
        // then the runs the walk appends above it; and the runs each
        // record ends with.
        let deep = run(4, 100, 5, 2, 7);
        let cases = [
            // The walk resumes the cut run, another call site interrupts
            // it, and it starts again.
            (
                250,
                vec![
                    run(254, 30, 5, 2, 7),
                    run(404, 1, 0, 3, 9),
                    run(409, 4, 5, 2, 7),
                ],
                vec![
                    run(4, 80, 5, 2, 7),
                    run(404, 1, 0, 3, 9),
                    run(409, 4, 5, 2, 7),
                ],
            ),
            // The floor keeps one frame, which sets the stride.
            (5, vec![run(9, 10, 5, 2, 7)], vec![run(4, 11, 5, 2, 7)]),
            // Another step starts a run, and so does a gap.
            (
                250,
                vec![run(254, 3, 5, 2, 8), run(300, 2, 5, 2, 8)],
                vec![
                    run(4, 50, 5, 2, 7),
                    run(254, 3, 5, 2, 8),
                    run(300, 2, 5, 2, 8),
                ],
            ),
            // Only the first frame of a run off the kept run's stride
            // continues it.
            (
                250,
                vec![run(254, 3, 6, 2, 7)],
                vec![run(4, 51, 5, 2, 7), run(260, 2, 6, 2, 7)],
            ),
        ];
        for (floor, above, expected) in cases {
            let (mut whole, mut frames) = (WalkRecord::default(), WalkRecord::default());
            for r in [&mut whole, &mut frames] {
                by_frames(r, &deep);
                r.keep_below(floor);
            }
            for run in &above {
                whole.push(*run);
                by_frames(&mut frames, run);
            }
            assert_eq!(whole.runs(), frames.runs(), "floor {floor}, then {above:?}");
            assert_eq!(whole.runs(), expected, "floor {floor}, then {above:?}");
        }
    }

    #[test]
    fn decoding_stops_at_the_floor() {
        use crate::cache::RtId;
        // Three frames at 0, 3 and 7, each suspended at its own site.
        let p = {
            use tfgc_ir::lower;
            use tfgc_syntax::parse_program;
            use tfgc_types::elaborate;
            let src = "fun f n = if n = 0 then 0 else 1 + f (n - 1) ; f 2";
            lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
        };
        let site = CallSiteId(0);
        let ret = pack_ret(site, Slot(0));
        let stack = [NO_FP, MAIN_RET, 0, 0, ret, 0, 0, 3, ret, 0];
        let mut out = Vec::new();
        assert_eq!(walk_frames_into(&mut out, &stack, 7, site, 0, &p), None);
        assert_eq!(out.iter().map(|f| f.fp).collect::<Vec<_>>(), [7, 3, 0]);
        assert_eq!(walk_frames_into(&mut out, &stack, 7, site, 4, &p), Some(3));
        assert_eq!(out.iter().map(|f| f.fp).collect::<Vec<_>>(), [7]);
        assert_eq!(walk_frames_into(&mut out, &stack, 7, site, 3, &p), Some(0));
        assert_eq!(out.len(), 2);

        // The frame at 0 starts a run, the one at 3 sets its stride, and
        // the one at 7 is off that stride. Under a step that hands on
        // another state, none joins.
        walk_frames_into(&mut out, &stack, 7, site, 0, &p);
        let mut run = Run::one(&out[2], FrameState::None, Some(0));
        assert_eq!(run.grow_over(&out[..2], FrameState::Clos(RtId::CONST)), 0);
        assert_eq!(run.grow_over(&out[..2], FrameState::None), 1);
        assert_eq!((run.count, run.stride, run.frame(1)), (2, 3, out[1]));
    }

    #[test]
    fn sentinels_are_distinct_from_real_values() {
        assert_ne!(pack_ret(CallSiteId(0), Slot(0)), NO_FP);
        assert_ne!(pack_ret(CallSiteId(u32::MAX - 1), Slot(u16::MAX)), MAIN_RET);
    }
}
