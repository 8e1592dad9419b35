//! Pins the compiler's output. Every program of the workload suite and
//! 24 generated programs (the benchmark's compile-workload shape) are
//! compiled, and a deterministic projection of everything the front end
//! and the metadata builder produce is hashed per program: the IR, the
//! RTTI analysis, the dataflow analyses, and the single- and multi-task
//! `GcMeta` of every strategy. `DataEnv` and the interning tables are
//! left out because their `HashMap`s print in a per-run order.
//!
//! The digests live in `tests/compile_output.digests`. A change to the
//! compiler that alters its output fails here, naming each program and
//! printing its new line; refreshing the pin means copying those lines
//! into the file, as a deliberate part of the change.

use std::fmt::{self, Write};
use tfgc::gc::{GcMeta, Strategy};
use tfgc::workloads::{generate, programs, GenConfig};
use tfgc::Compiled;

const PINNED: &str = include_str!("compile_output.digests");

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The suite programs, then generated programs with the compile
/// workload's `GenConfig` (`fuel 2000, n_funs 8, max_depth 6`).
fn inputs() -> Vec<(String, String)> {
    let cfg = GenConfig {
        fuel: 2000,
        n_funs: 8,
        max_depth: 6,
        ..GenConfig::default()
    };
    let suite = programs::suite()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src));
    let generated = (1..=24u64).map(|seed| (format!("gen{seed}"), generate(seed, &cfg)));
    suite.chain(generated).collect()
}

fn digest(src: &str) -> Result<u64, fmt::Error> {
    let c = Compiled::compile(src).expect("program compiles");
    let p = &c.program;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(
        h,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        p.funs,
        p.globals,
        p.sites,
        p.desc_templates,
        p.ctor_reps,
        p.main,
        p.main_ty,
        p.opaque_schemes
    )?;
    write!(h, "{:?}{:?}", c.rtti, c.analyses)?;
    for s in Strategy::ALL {
        for meta in [
            GcMeta::build(p, &c.analyses, s),
            GcMeta::build_multi_task(p, &c.analyses, s),
        ] {
            write!(
                h,
                "{:?}{:?}{:?}{:?}{} {} {}",
                meta.sites,
                meta.fns,
                meta.globals,
                meta.data_variants,
                meta.metadata_bytes(),
                meta.distinct_routines(),
                meta.omitted_gc_words()
            )?;
        }
    }
    Ok(h.0)
}

#[test]
fn compiler_output_matches_pinned_digests() {
    let pinned: Vec<&str> = PINNED.lines().collect();
    let mut mismatches = Vec::new();
    let mut lines = Vec::new();
    for (i, (name, src)) in inputs().iter().enumerate() {
        let line = format!("{name} {:016x}", digest(src).expect("hashing never fails"));
        if pinned.get(i).copied() != Some(line.as_str()) {
            mismatches.push(format!("{name}: output changed; new line `{line}`"));
        }
        lines.push(line);
    }
    assert!(
        mismatches.is_empty() && pinned.len() == lines.len(),
        "compiler output differs from tests/compile_output.digests:\n{}\n\
         if the change is intended, the file's new contents are:\n{}",
        mismatches.join("\n"),
        lines.join("\n")
    );
}
