//! GC-time type routine values — the paper's Figure 3/4 closures — as
//! trees.
//!
//! During a collection of a polymorphic program, frame routines construct
//! and pass **type_gc_routine closures**: `trace_list_of(const_gc)` is
//! [`RtVal::Data`]`(list, [Const])` here. They are built by evaluating the
//! compiled templates ([`crate::sx::TypeSx`]) under the current frame's
//! environment, mirroring §3's "closures representing type_gc_routines may
//! be constructed during garbage collection".
//!
//! The collector itself holds routines as hash-consed ids of its
//! [`RtCache`](crate::cache::RtCache). The trees and builders here
//! ([`eval_sx`], [`extract_path`], [`desc_to_rt`]) are the heap
//! verifier's independent reference, and the form the property tests
//! compare the cache against. Both forms share `extract_ground`, which
//! continues a Figure-3 path below a precompiled ground routine by walking
//! the type the routine was compiled from.
//!
//! Resolution is **fail-fast**: an out-of-range type parameter or
//! extraction path means the compiled metadata disagrees with the runtime
//! environment, and silently treating the value as pointer-free would make
//! the collector skip a live pointer and corrupt the heap undetected. Both
//! [`eval_sx`] and [`extract_path`] therefore panic with the evaluation
//! context ([`EvalCx`]) — the same contract as the collector's
//! gc_word-omission panic.

use crate::desc::{DescArena, DescId, DescNode};
use crate::ground::{GroundTable, TypeRtId};
use crate::sx::TypeSx;
use std::fmt;
use std::rc::Rc;
use tfgc_ir::IrProgram;
use tfgc_types::{DataId, Type};

/// A type routine value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RtVal {
    /// `const_gc`: single-word, never a pointer.
    Const,
    /// A precompiled ground routine.
    Ground(TypeRtId),
    /// Tuple with per-field routines.
    Tuple(Rc<Vec<RtVal>>),
    /// Datatype instance with per-argument routines — Figure 3's
    /// `trace_list_of(r)` is `Data(list, [r])`.
    Data(DataId, Rc<Vec<RtVal>>),
    /// Function value: traced through the closure's layout; the argument
    /// and result routines are kept for parameter extraction (Figure 4).
    Arrow(Rc<RtVal>, Rc<RtVal>),
}

/// Counters for closure-construction work during collection (E5 metric).
#[derive(Debug, Clone, Copy, Default)]
pub struct RtBuildStats {
    /// RtVal nodes constructed.
    pub nodes_built: u64,
}

/// Where a template/path is being resolved — carried into the fail-fast
/// panics so a metadata bug names the frame or object that exposed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalCx {
    /// No specific runtime context (tests, standalone evaluation).
    None,
    /// A global variable's template.
    Global(u32),
    /// A frame of `fn_id` suspended at `site`.
    Frame { fn_id: u32, site: u32 },
    /// Allocation operands of `site`.
    Operands { site: u32 },
    /// Variant fields of a datatype instance.
    Data(u32),
    /// A closure object of function `fn_id`.
    Closure { fn_id: u32 },
}

impl fmt::Display for EvalCx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalCx::None => write!(f, "no frame context"),
            EvalCx::Global(i) => write!(f, "global {i}"),
            EvalCx::Frame { fn_id, site } => write!(f, "frame fn {fn_id} at site {site}"),
            EvalCx::Operands { site } => write!(f, "allocation operands of site {site}"),
            EvalCx::Data(d) => write!(f, "variant fields of datatype {d}"),
            EvalCx::Closure { fn_id } => write!(f, "closure object of fn {fn_id}"),
        }
    }
}

/// Shared fail-fast parameter lookup: an index past the environment means
/// the metadata and the frame disagree about the routine arity.
pub(crate) fn param_lookup<T: Clone>(i: u16, env: &[T], cx: EvalCx) -> T {
    env.get(i as usize).cloned().unwrap_or_else(|| {
        panic!(
            "type parameter {} out of range: environment carries {} routine(s) ({}) — \
             treating it as non-pointer would mistrace a live value",
            i,
            env.len(),
            cx
        )
    })
}

/// Evaluates a template under `env` (the frame's type-routine
/// environment, aligned with its `frame_params`).
///
/// # Panics
///
/// Panics if a [`TypeSx::Param`] index is out of range for `env` — a
/// metadata/environment mismatch that would otherwise corrupt the heap.
pub fn eval_sx(sx: &TypeSx, env: &[RtVal], stats: &mut RtBuildStats, cx: EvalCx) -> RtVal {
    match sx {
        TypeSx::Prim => RtVal::Const,
        TypeSx::Ground(id) => RtVal::Ground(*id),
        TypeSx::Param(i) => param_lookup(*i, env, cx),
        TypeSx::Tuple(ts) => {
            stats.nodes_built += 1;
            RtVal::Tuple(Rc::new(
                ts.iter().map(|t| eval_sx(t, env, stats, cx)).collect(),
            ))
        }
        TypeSx::Data(d, ts) => {
            stats.nodes_built += 1;
            RtVal::Data(
                *d,
                Rc::new(ts.iter().map(|t| eval_sx(t, env, stats, cx)).collect()),
            )
        }
        TypeSx::Arrow(a, b) => {
            stats.nodes_built += 1;
            RtVal::Arrow(
                Rc::new(eval_sx(a, env, stats, cx)),
                Rc::new(eval_sx(b, env, stats, cx)),
            )
        }
    }
}

pub(crate) fn bad_path(path: &[u16], k: usize, arity: usize, what: &str, cx: EvalCx) -> ! {
    panic!(
        "extraction path {:?} invalid at step {} ({} has {} field(s), {}) — \
         a silent non-pointer default would mistrace a live value",
        path, k, what, arity, cx
    )
}

/// Extracts the sub-routine at `path` — §3's "the type_gc_routine for x
/// can be extracted from the closure (see Figure 3)". A ground routine met
/// part-way extracts through the type it was compiled from. A mid-path
/// `Const` is legitimate (an opaque parameter's routine extracts as
/// `const_gc`).
///
/// # Panics
///
/// Panics if a path step indexes past a structural node's fields — a
/// compiled-path/type mismatch that would otherwise corrupt the heap.
pub fn extract_path(
    rt: &RtVal,
    path: &[u16],
    prog: &IrProgram,
    ground: &mut GroundTable,
    cx: EvalCx,
) -> RtVal {
    let mut cur = rt;
    for (k, step) in path.iter().enumerate() {
        cur = match cur {
            RtVal::Tuple(fs) | RtVal::Data(_, fs) => match fs.get(*step as usize) {
                Some(sub) => sub,
                None => bad_path(path, k, fs.len(), "structural routine", cx),
            },
            RtVal::Arrow(a, b) => match step {
                0 => a,
                1 => b,
                _ => bad_path(path, k, 2, "arrow routine", cx),
            },
            RtVal::Ground(id) => {
                return extract_ground(*id, path, k, prog, ground, cx)
                    .map_or(RtVal::Const, RtVal::Ground)
            }
            RtVal::Const => return RtVal::Const,
        };
    }
    cur.clone()
}

/// Continues a Figure-3 extraction that met ground routine `id` at step
/// `k` of `path`: the remaining steps walk the ground type `id` was
/// compiled from — a tuple's fields, a datatype's type arguments, an
/// arrow's argument and result — and the type reached is compiled (or
/// found) in `ground`. `None` is `const_gc`: a pointer-free type, or an
/// opaque leaf met before the path ends.
///
/// # Panics
///
/// Panics if a step indexes past a ground type's components.
pub(crate) fn extract_ground(
    id: TypeRtId,
    path: &[u16],
    k: usize,
    prog: &IrProgram,
    ground: &mut GroundTable,
    cx: EvalCx,
) -> Option<TypeRtId> {
    let ty = Rc::clone(ground.ty(id));
    let mut cur: &Type = &ty;
    for (j, step) in path.iter().enumerate().skip(k) {
        cur = match cur {
            Type::Tuple(ts) | Type::Data(_, ts) => match ts.get(*step as usize) {
                Some(t) => t,
                None => bad_path(path, j, ts.len(), "ground type", cx),
            },
            Type::Arrow(a, b) => match step {
                0 => a,
                1 => b,
                _ => bad_path(path, j, 2, "ground arrow type", cx),
            },
            // Opaque leaves (parameters, prims) extract as const_gc.
            _ => return None,
        };
    }
    let sub = ground.make(prog, cur);
    (!ground.rt(sub).is_prim()).then_some(sub)
}

/// Converts a runtime descriptor into a type routine (used when a frame
/// or closure resolves a parameter through a hidden descriptor).
pub fn desc_to_rt(arena: &DescArena, id: DescId, stats: &mut RtBuildStats) -> RtVal {
    match arena.node(id) {
        DescNode::Prim | DescNode::Opaque => RtVal::Const,
        DescNode::Tuple(ds) => {
            stats.nodes_built += 1;
            RtVal::Tuple(Rc::new(
                ds.iter().map(|d| desc_to_rt(arena, *d, stats)).collect(),
            ))
        }
        DescNode::Data(data, ds) => {
            stats.nodes_built += 1;
            RtVal::Data(
                *data,
                Rc::new(ds.iter().map(|d| desc_to_rt(arena, *d, stats)).collect()),
            )
        }
        DescNode::Arrow(a, b) => {
            stats.nodes_built += 1;
            RtVal::Arrow(
                Rc::new(desc_to_rt(arena, *a, stats)),
                Rc::new(desc_to_rt(arena, *b, stats)),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_ir::lower;
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn prog(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn eval_builds_figure3_closures() {
        // trace_list_of(const_gc)
        let sx = TypeSx::Data(tfgc_types::LIST_DATA, vec![TypeSx::Param(0)]);
        let mut stats = RtBuildStats::default();
        let rt = eval_sx(&sx, &[RtVal::Const], &mut stats, EvalCx::None);
        assert_eq!(
            rt,
            RtVal::Data(tfgc_types::LIST_DATA, Rc::new(vec![RtVal::Const]))
        );
        assert_eq!(stats.nodes_built, 1);

        // trace_list_of(trace_list_of(const_gc)) — Figure 3(b).
        let nested = TypeSx::Data(
            tfgc_types::LIST_DATA,
            vec![TypeSx::Data(tfgc_types::LIST_DATA, vec![TypeSx::Param(0)])],
        );
        let rt2 = eval_sx(&nested, &[RtVal::Const], &mut stats, EvalCx::None);
        match rt2 {
            RtVal::Data(_, args) => assert!(matches!(args[0], RtVal::Data(_, _))),
            other => panic!("expected nested data routine, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "type parameter 1 out of range")]
    fn truncated_env_panics_instead_of_mistracing() {
        // The template references parameter 1 but the environment carries
        // a single routine — a silent Const here is the "skip a live
        // pointer" failure mode; it must fail loudly.
        let sx = TypeSx::Data(tfgc_types::LIST_DATA, vec![TypeSx::Param(1)]);
        let mut stats = RtBuildStats::default();
        eval_sx(
            &sx,
            &[RtVal::Const],
            &mut stats,
            EvalCx::Frame { fn_id: 7, site: 3 },
        );
    }

    #[test]
    #[should_panic(expected = "extraction path")]
    fn out_of_range_extraction_step_panics() {
        let rt = RtVal::Tuple(Rc::new(vec![RtVal::Const]));
        let p = prog("0");
        let mut g = GroundTable::new();
        extract_path(&rt, &[4], &p, &mut g, EvalCx::Closure { fn_id: 2 });
    }

    #[test]
    fn extract_walks_structure() {
        let p = prog("0");
        let mut g = GroundTable::new();
        let rt = RtVal::Arrow(
            Rc::new(RtVal::Data(
                tfgc_types::LIST_DATA,
                Rc::new(vec![RtVal::Tuple(Rc::new(vec![RtVal::Const]))]),
            )),
            Rc::new(RtVal::Const),
        );
        // Path: arg(0) -> list elem(0) -> tuple field 0.
        let sub = extract_path(&rt, &[0, 0, 0], &p, &mut g, EvalCx::None);
        assert_eq!(sub, RtVal::Const);
        let sub2 = extract_path(&rt, &[0, 0], &p, &mut g, EvalCx::None);
        assert!(matches!(sub2, RtVal::Tuple(_)));
    }

    #[test]
    fn extract_through_ground_arrow() {
        let p = prog("0");
        let mut g = GroundTable::new();
        let arrow = Type::arrow(Type::list(Type::Int), Type::Int);
        let id = g.make(&p, &arrow);
        let rt = RtVal::Ground(id);
        let sub = extract_path(&rt, &[0], &p, &mut g, EvalCx::None);
        // The argument position holds int list: a ground pointerful type.
        assert!(matches!(sub, RtVal::Ground(_)));
        let sub2 = extract_path(&rt, &[1], &p, &mut g, EvalCx::None);
        assert_eq!(sub2, RtVal::Const);
    }

    #[test]
    fn extract_through_ground_data() {
        // A closure type can be partly ground: in
        // `(int * int) list * 'b -> (int * int) list` the argument tuple's
        // first field is a ground datatype routine, and a path that goes on
        // into its element must reach the pair routine, not const_gc.
        let p = prog("0");
        let mut g = GroundTable::new();
        let pair = Type::Tuple(vec![Type::Int, Type::Int]);
        let pairs = g.make(&p, &Type::list(pair.clone()));
        let pair_id = g.make(&p, &pair);
        let rt = RtVal::Arrow(
            Rc::new(RtVal::Tuple(Rc::new(vec![
                RtVal::Ground(pairs),
                RtVal::Const,
            ]))),
            Rc::new(RtVal::Ground(pairs)),
        );
        let elem = extract_path(&rt, &[0, 0, 0], &p, &mut g, EvalCx::None);
        assert_eq!(elem, RtVal::Ground(pair_id));
        // Through a ground tuple, into a pointer field and a prim field.
        let tup = g.make(&p, &Type::Tuple(vec![Type::list(Type::Int), Type::Int]));
        let ints = g.make(&p, &Type::list(Type::Int));
        let rt = RtVal::Ground(tup);
        assert_eq!(
            extract_path(&rt, &[0], &p, &mut g, EvalCx::None),
            RtVal::Ground(ints)
        );
        assert_eq!(
            extract_path(&rt, &[1], &p, &mut g, EvalCx::None),
            RtVal::Const
        );
        assert_eq!(
            extract_path(&rt, &[0, 0], &p, &mut g, EvalCx::None),
            RtVal::Const
        );
    }

    #[test]
    #[should_panic(expected = "ground type")]
    fn out_of_range_step_through_a_ground_routine_panics() {
        let p = prog("0");
        let mut g = GroundTable::new();
        let tup = g.make(&p, &Type::Tuple(vec![Type::list(Type::Int), Type::Int]));
        extract_path(&RtVal::Ground(tup), &[2], &p, &mut g, EvalCx::None);
    }

    #[test]
    fn desc_roundtrip_to_rt() {
        let mut arena = DescArena::new();
        let d = arena.eval_type(&Type::list(Type::Bool), &|_| None);
        let mut stats = RtBuildStats::default();
        let rt = desc_to_rt(&arena, d, &mut stats);
        assert_eq!(
            rt,
            RtVal::Data(tfgc_types::LIST_DATA, Rc::new(vec![RtVal::Const]))
        );
    }
}
