//! # tfgc-workloads — benchmark programs
//!
//! TFML sources for the experiment suite: the paper's own worked examples
//! ([`paper_examples`]), realistic list/tree/closure workloads
//! ([`programs`]), and a seeded well-typed-by-construction random program
//! generator ([`generator`]) for differential fuzzing.

pub mod generator;
pub mod paper_examples;
pub mod programs;
pub mod rng;

pub use generator::{
    generate, generate_program, DtDecl, DtVariant, GExpr, GProgram, GTy, GenConfig, VField,
};
pub use programs::suite;
pub use rng::{fnv1a64, SmallRng};
