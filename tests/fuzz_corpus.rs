//! Replays the committed fuzz corpus (`tests/corpus/*.tfml`).
//!
//! Every file in the corpus is either a minimized reproducer from a past
//! `tfml fuzz` campaign or a hand-seeded regression shape for a latent bug
//! class fixed in an earlier change. Each program runs across all five GC
//! strategies on a tiny growable heap with collections forced every few
//! allocations and the heap verifier enabled. All configurations must
//! agree on the observable outcome.

use std::fs;
use std::path::PathBuf;

use tfgc::{Compiled, Strategy, VmConfig};

fn corpus_files() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tfml"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        !corpus_files().is_empty(),
        "tests/corpus holds committed fuzz reproducers and must never be empty"
    );
}

#[test]
fn corpus_replays_identically_under_generational_collection() {
    // Same agreement contract as the single-generation replay, but with a
    // tiny bump-pointer nursery so every reproducer exercises minor
    // collections, survivor aging, and promotion under the heap verifier.
    for path in corpus_files() {
        let name = path
            .file_name()
            .expect("corpus file name")
            .to_string_lossy()
            .into_owned();
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: read: {e}"));
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let mut reference: Option<(String, Vec<i64>)> = None;
        for s in Strategy::ALL {
            for generational in [false, true] {
                let mut cfg = VmConfig::new(s)
                    .heap_words(1 << 10)
                    .heap_max_words(1 << 16)
                    .force_gc_every(7)
                    .verify_heap(true);
                if generational {
                    cfg = cfg.generational(1 << 8, 1);
                }
                let out = compiled
                    .run_with_meta(cfg, compiled.metadata(s))
                    .unwrap_or_else(|e| panic!("{name} under {s} gen={generational}: {e}"));
                match &reference {
                    None => reference = Some((out.result, out.printed)),
                    Some((r0, p0)) => {
                        assert_eq!(
                            &out.result, r0,
                            "{name}: result under {s} gen={generational}"
                        );
                        assert_eq!(
                            &out.printed, p0,
                            "{name}: printed under {s} gen={generational}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn corpus_replays_identically_across_strategies() {
    for path in corpus_files() {
        let name = path
            .file_name()
            .expect("corpus file name")
            .to_string_lossy()
            .into_owned();
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: read: {e}"));
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let mut reference: Option<(String, Vec<i64>)> = None;
        for s in Strategy::ALL {
            let cfg = VmConfig::new(s)
                .heap_words(1 << 10)
                .heap_max_words(1 << 16)
                .force_gc_every(7)
                .verify_heap(true);
            let out = compiled
                .run_with_meta(cfg, compiled.metadata(s))
                .unwrap_or_else(|e| panic!("{name} under {s}: {e}"));
            match &reference {
                None => reference = Some((out.result, out.printed)),
                Some((r0, p0)) => {
                    assert_eq!(&out.result, r0, "{name}: result under {s}");
                    assert_eq!(&out.printed, p0, "{name}: printed under {s}");
                }
            }
        }
    }
}
