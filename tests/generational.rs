//! Generational-collection equivalence and promotion-boundary tests.
//!
//! The nursery is pure copying plumbing: minor collections, survivor
//! aging, and tenured promotion must never change what a program
//! computes, under any strategy and any `promote_after` threshold. These tests pin that contract with the
//! heap verifier enabled, plus determinism of the generational
//! counters themselves.

use tfgc::{Compiled, Strategy, VmConfig};

/// A heap small enough that the workload suite collects, with a nursery
/// small enough that most of those collections are minors.
fn gen_cfg(s: Strategy, promote_after: u32) -> VmConfig {
    base_cfg(s).generational(1 << 8, promote_after)
}

fn base_cfg(s: Strategy) -> VmConfig {
    VmConfig::new(s)
        .heap_words(1 << 12)
        .heap_max_words(1 << 16)
        .verify_heap(true)
}

#[test]
fn suite_is_bit_identical_with_and_without_generational() {
    let mut minors_total = 0u64;
    for (name, src) in tfgc::workloads::suite() {
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in Strategy::ALL {
            let base = compiled
                .run_with_meta(base_cfg(s), compiled.metadata(s))
                .unwrap_or_else(|e| panic!("{name} under {s}: {e}"));
            let gen = compiled
                .run_with_meta(gen_cfg(s, 1), compiled.metadata(s))
                .unwrap_or_else(|e| panic!("{name} under {s} gen: {e}"));
            assert_eq!(gen.result, base.result, "{name}: result under {s}");
            assert_eq!(gen.printed, base.printed, "{name}: printed under {s}");
            assert_eq!(
                base.gc.minor_collections, 0,
                "{name}: baseline must never run minors"
            );
            minors_total += gen.gc.minor_collections;
        }
    }
    assert!(
        minors_total > 0,
        "the suite must trigger minor collections somewhere or the test is vacuous"
    );
}

#[test]
fn generational_runs_are_deterministic() {
    for (name, src) in tfgc::workloads::suite() {
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = Strategy::Compiled;
        let a = compiled
            .run_with_meta(gen_cfg(s, 1), compiled.metadata(s))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = compiled
            .run_with_meta(gen_cfg(s, 1), compiled.metadata(s))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a.result, b.result, "{name}: result");
        assert_eq!(a.printed, b.printed, "{name}: printed");
        assert_eq!(
            a.gc.minor_collections, b.gc.minor_collections,
            "{name}: minor count must be deterministic"
        );
        assert_eq!(
            a.gc.major_collections, b.gc.major_collections,
            "{name}: major count must be deterministic"
        );
        assert_eq!(
            a.gc.promoted_words, b.gc.promoted_words,
            "{name}: promoted words must be deterministic"
        );
        assert_eq!(
            a.gc.died_young_words, b.gc.died_young_words,
            "{name}: died-young words must be deterministic"
        );
    }
}

#[test]
fn promote_after_edges_agree() {
    // promote_after 0 tenures on first survival (the whole nursery is
    // eden, no survivor halves); 1 ages through the survivor half once;
    // a huge threshold never promotes by age at all (only survivor
    // overflow can tenure, which escalates to a major in-pause). All
    // three must compute the same answers as each other.
    let mut eager_promoted = 0u64;
    for (name, src) in tfgc::workloads::suite() {
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in Strategy::ALL {
            let mut runs = Vec::new();
            for promote_after in [0u32, 1, u32::MAX] {
                let out = compiled
                    .run_with_meta(gen_cfg(s, promote_after), compiled.metadata(s))
                    .unwrap_or_else(|e| panic!("{name} under {s} k={promote_after}: {e}"));
                runs.push((promote_after, out));
            }
            let (_, eager) = &runs[0];
            for (k, out) in &runs[1..] {
                assert_eq!(
                    out.result, eager.result,
                    "{name} under {s}: result at k={k}"
                );
                assert_eq!(
                    out.printed, eager.printed,
                    "{name} under {s}: printed at k={k}"
                );
            }
            eager_promoted += eager.gc.promoted_words;
        }
    }
    assert!(
        eager_promoted > 0,
        "promote_after=0 must tenure survivors somewhere in the suite"
    );
}

#[test]
fn deep_list_mid_spine_survivors_promote_and_agree() {
    // A long list built once, then repeatedly re-summed alongside small
    // transient lists. The long spine straddles many minor-collection
    // boundaries while it is built, so mid-spine cells survive and
    // promote; each iteration's short list fits in eden and is garbage
    // by the next minor, so it dies young. (A transient larger than the
    // nursery would never die young — minors would always catch it
    // half-built and fully live.)
    let src = "fun build n = if n = 0 then [] else n :: build (n - 1) ;
               fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
               fun go i acc xs =
                 if i = 0 then acc
                 else go (i - 1) (acc + sum (build 25) + sum xs) xs ;
               let val xs = build 300 in go 30 0 xs end";
    let compiled = Compiled::compile(src).expect("deep-list program compiles");
    let mut reference: Option<String> = None;
    for s in Strategy::ALL {
        let base = compiled
            .run_with_meta(base_cfg(s), compiled.metadata(s))
            .unwrap_or_else(|e| panic!("baseline under {s}: {e}"));
        let gen = compiled
            .run_with_meta(gen_cfg(s, 1), compiled.metadata(s))
            .unwrap_or_else(|e| panic!("generational under {s}: {e}"));
        assert_eq!(gen.result, base.result, "{s}: generational result");
        assert!(
            gen.gc.minor_collections > 0,
            "{s}: the deep list must force minor collections"
        );
        assert!(
            gen.gc.promoted_words > 0,
            "{s}: surviving spine cells must reach the tenured generation"
        );
        // Only the liveness-precise strategies clear dead stack slots;
        // without liveness the transient lists stay stack-reachable at
        // minor time, so they survive (and the minor escalates) instead
        // of dying young.
        if matches!(s, Strategy::Compiled | Strategy::Interpreted) {
            assert!(
                gen.gc.died_young_words > 0,
                "{s}: transient per-iteration lists must die young"
            );
        }
        match &reference {
            None => reference = Some(gen.result.clone()),
            Some(r) => assert_eq!(&gen.result, r, "{s}: cross-strategy agreement"),
        }
    }
}
