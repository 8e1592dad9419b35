//! The tagged baseline collector.
//!
//! What "current implementations of ML" did (§1): every word carries a
//! low-bit tag distinguishing pointers from integers, every heap object
//! carries a header word with its size, and the collector needs **no
//! compiler-generated metadata at all** — it scans every slot of every
//! activation record, follows everything even-tagged, and copies
//! header-delimited objects.
//!
//! The costs the paper attributes to this design are all observable here:
//! header words (E1), tag arithmetic in the mutator (E2, in the VM), and
//! the inability to skip dead variables (E3) — this collector cannot know
//! which slots are live, so it traces them all.

use crate::stack::{walk_frames, FRAME_HDR};
use crate::stats::GcStats;
use tfgc_ir::IrProgram;
use tfgc_obs::{GcEvent, Obs};
use tfgc_runtime::{Addr, Encoding, Heap, HeapMode, Word, HEAP_BASE};

use crate::collect::MachineRoots;

/// Traces one tagged collection `seq` inside the envelope
/// [`fn@crate::collect`] writes. Tags still identify pointers on a
/// generational heap; there the heap's phase treats tenured addresses as
/// already relocated and routes survivors to the survivor half or
/// tenured space.
pub(crate) fn collect_tagged(
    prog: &IrProgram,
    heap: &mut Heap,
    stats: &mut GcStats,
    obs: &mut Obs,
    seq: u64,
    mut roots: MachineRoots<'_>,
) {
    let enc = Encoding::new(HeapMode::Tagged);
    let mut scan: Vec<(Addr, usize)> = Vec::new();

    // Globals.
    for w in roots.globals.iter_mut() {
        *w = reloc(heap, enc, obs, seq, &mut scan, *w);
    }

    // Every slot of every frame of every task — "every variable in every
    // activation record on the stack" (§1).
    for sr in roots.stacks.iter_mut() {
        let frames = walk_frames(sr.stack, sr.top_fp, sr.current_site, prog);
        stats.frames_visited += frames.len() as u64;
        for fr in &frames {
            stats.routine_invocations += 1;
            let n_slots = prog.fun(fr.fn_id).slots.len();
            obs.emit(|_| GcEvent::FrameVisit {
                seq,
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            });
            obs.emit(|_| GcEvent::RoutineRun {
                seq,
                site: fr.site.0,
                ops: n_slots as u32,
            });
            for i in 0..n_slots {
                let idx = fr.fp + FRAME_HDR + i;
                stats.words_scanned_tagged += 1;
                sr.stack[idx] = reloc(heap, enc, obs, seq, &mut scan, sr.stack[idx]);
            }
        }
    }

    // Pending allocation operands.
    for w in roots.operands.iter_mut() {
        *w = reloc(heap, enc, obs, seq, &mut scan, *w);
    }

    // Cheney scan of copied objects: fields identify themselves by tag.
    while let Some((addr, len)) = scan.pop() {
        for i in 0..len {
            let off = (i + 1) as u16; // skip the header word
            stats.words_scanned_tagged += 1;
            let w = heap.read(addr, off);
            let nw = reloc(heap, enc, obs, seq, &mut scan, w);
            heap.write(addr, off, nw);
        }
    }
}

/// Relocates one tagged word: odd = integer (skip), even = pointer to a
/// header-prefixed object.
fn reloc(
    heap: &mut Heap,
    enc: Encoding,
    obs: &mut Obs,
    seq: u64,
    scan: &mut Vec<(Addr, usize)>,
    w: Word,
) -> Word {
    if !enc.is_tagged_ptr(w) {
        return w;
    }
    let a = enc.addr_of(w);
    debug_assert!(a.0 >= HEAP_BASE, "tagged pointer below heap base");
    if let Some(n) = heap.relocated(a) {
        return enc.ptr(n);
    }
    // Header word = payload length (raw).
    let len = heap.read(a, 0) as usize;
    let new = heap.evacuate(a, len + 1);
    obs.emit(|_| GcEvent::ObjectCopied {
        seq,
        from: a.0,
        to: new.0,
        words: (len + 1) as u32,
    });
    scan.push((new, len));
    enc.ptr(new)
}
