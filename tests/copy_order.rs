//! Pins the order in which the collectors copy objects. Every program of
//! the workload suite, and one corpus program whose frames read a type
//! parameter from their own descriptor slot (no suite program has one),
//! runs under all five strategies on a small heap with forced
//! collections: once on a single-generation heap, and once with a
//! nursery whose survivor half is small enough to overflow. Each
//! run's copies — the `(collection, from, to, words)` of every
//! `ObjectCopied` event, after its collection's number and kind — are
//! hashed into one digest.
//!
//! Copy order moves no program output, but it fixes every to-space
//! address, and when a minor's survivor half overflows it decides which
//! objects are promoted, and so `promoted_words`. A change to the copy
//! loop must leave it as it was. The test also requires the nursery runs
//! to overflow a survivor half at least once, seen as a minor that
//! escalates to a major in the same pause, so the pin keeps covering
//! that case.
//!
//! The digests live in `tests/copy_order.digests`, one line per program
//! and strategy: the single-generation digest, then the nursery one. A
//! change that alters the order fails here, naming each program and
//! strategy and printing its new line; refreshing the pin means copying
//! those lines into the file, as a deliberate part of the change.

use std::cell::Cell;
use std::rc::Rc;
use tfgc::obs::{CollectionKind, GcEvent, GcEventSink, Obs};
use tfgc::{Compiled, Strategy, VmConfig};

const PINNED: &str = include_str!("copy_order.digests");

/// 64-bit FNV-1a over the words of every copy, and the number of minors
/// that escalated to a major, both shared with the test that reads them
/// once the run ends.
struct CopyDigest {
    hash: Rc<Cell<u64>>,
    escalations: Rc<Cell<u64>>,
    /// The last event was a minor's end.
    after_minor: bool,
}

impl CopyDigest {
    fn mix(&self, words: &[u64]) {
        let mut h = self.hash.get();
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.hash.set(h);
    }
}

impl GcEventSink for CopyDigest {
    fn record(&mut self, ev: GcEvent) {
        let after_minor = std::mem::take(&mut self.after_minor);
        match ev {
            GcEvent::CollectionBegin { seq, kind, .. } => {
                // A major that begins right after a minor ended, with no
                // event between, is the same pause's escalation of a
                // minor whose survivor half overflowed.
                if after_minor && kind == CollectionKind::Major {
                    self.escalations.set(self.escalations.get() + 1);
                }
                self.mix(&[seq, u64::from(kind == CollectionKind::Minor)]);
            }
            GcEvent::CollectionEnd { kind, .. } => {
                self.after_minor = kind == CollectionKind::Minor;
            }
            GcEvent::ObjectCopied {
                seq,
                from,
                to,
                words,
            } => self.mix(&[seq, from, to, u64::from(words)]),
            _ => {}
        }
    }
}

/// The two heaps every run is pinned on. Forced collections are full
/// ones; the nursery run also collects its 128-word eden when it fills,
/// its two 64-word survivor halves overflow on any larger live set, and
/// objects promote on their second survival.
fn configs(s: Strategy) -> [VmConfig; 2] {
    let flat = VmConfig::new(s).heap_words(1 << 13).force_gc_every(7);
    let nursery = VmConfig::new(s)
        .heap_words(1 << 13)
        .generational(256, 1)
        .force_gc_every(101);
    [flat, nursery]
}

/// The copy digest of one run, with the number of its minors that
/// escalated to a major.
fn digest(c: &Compiled, cfg: VmConfig, what: &str) -> (u64, u64) {
    let hash = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325));
    let escalations = Rc::new(Cell::new(0));
    let obs = Obs::custom(Box::new(CopyDigest {
        hash: Rc::clone(&hash),
        escalations: Rc::clone(&escalations),
        after_minor: false,
    }));
    let meta = c.metadata(cfg.strategy);
    c.run_observed(cfg, meta, obs)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    (hash.get(), escalations.get())
}

#[test]
fn copy_order_matches_pinned_digests() {
    let pinned: Vec<&str> = PINNED.lines().collect();
    let mut mismatches = Vec::new();
    let mut lines = Vec::new();
    let mut escalations = 0;
    let kept_plain_frame = include_str!("corpus/kept_plain_frame.tfml").to_string();
    let programs = tfgc::workloads::suite()
        .into_iter()
        .chain([("kept_plain_frame", kept_plain_frame)]);
    for (name, src) in programs {
        let c = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in Strategy::ALL {
            let [flat, nursery] = configs(s).map(|cfg| {
                let what = format!("{name} under {s}, nursery {:?}", cfg.nursery_words);
                digest(&c, cfg, &what)
            });
            escalations += nursery.1;
            let line = format!("{name} {s} {:016x} {:016x}", flat.0, nursery.0);
            if pinned.get(lines.len()).copied() != Some(line.as_str()) {
                mismatches.push(format!(
                    "{name} under {s}: copy order changed; new line `{line}`"
                ));
            }
            lines.push(line);
        }
    }
    assert!(escalations > 0, "no nursery run overflowed a survivor half");
    assert!(
        mismatches.is_empty() && pinned.len() == lines.len(),
        "copy order differs from tests/copy_order.digests:\n{}\n\
         if the change is intended, the file's new contents are:\n{}",
        mismatches.join("\n"),
        lines.join("\n")
    );
}
