//! Live-variable analysis (§5.2).
//!
//! The paper's third claimed advantage: a compiler-generated frame routine
//! traces only the variables still *live* at the call site, so dead
//! structures are reclaimed earlier than in a collector that traces "every
//! variable in every activation record on the stack" (§1).
//!
//! Classic backward dataflow at instruction granularity:
//! `live_in(pc) = (live_out(pc) \ def(pc)) ∪ uses(pc)`,
//! `live_out(pc) = ⋃ live_in(succ)`.
//!
//! The set reported for a call site is `live_out(pc) \ def(pc)`: the
//! callee owns the argument values by the time a collection can happen
//! ("int_cons will trace its parameters", §2.4) and the destination slot
//! is not yet written.

use crate::bitset::SlotSet;
use tfgc_ir::{CallSiteId, IrFun, IrProgram};

/// Per-function liveness solution.
#[derive(Debug, Clone)]
pub struct FunLiveness {
    /// `live_in[pc]`.
    pub live_in: Vec<SlotSet>,
    /// `live_out[pc]`.
    pub live_out: Vec<SlotSet>,
}

impl FunLiveness {
    /// Computes liveness for one function.
    pub fn compute(f: &IrFun) -> FunLiveness {
        let n = f.code.len();
        let slots = f.slots.len();
        let mut live_in = vec![SlotSet::new(slots); n];
        let mut live_out = vec![SlotSet::new(slots); n];
        // Scratch sets reused by every step of every sweep.
        let mut out = SlotSet::new(slots);
        let mut inn = SlotSet::new(slots);
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (0..n).rev() {
                let ins = &f.code[pc];
                out.clear();
                for succ in ins.successors(pc as u32) {
                    out.union_with(&live_in[succ as usize]);
                }
                inn.copy_from(&out);
                if let Some(d) = ins.def() {
                    inn.remove(d);
                }
                for u in ins.uses() {
                    inn.insert(u);
                }
                if out != live_out[pc] {
                    live_out[pc].copy_from(&out);
                    changed = true;
                }
                if inn != live_in[pc] {
                    live_in[pc].copy_from(&inn);
                    changed = true;
                }
            }
        }
        FunLiveness { live_in, live_out }
    }

    /// Slots the frame routine must consider at the call site at `pc`:
    /// live after the call, excluding the not-yet-written destination.
    pub fn site_live(&self, f: &IrFun, pc: u32) -> SlotSet {
        let mut s = self.live_out[pc as usize].clone();
        if let Some(d) = f.code[pc as usize].def() {
            s.remove(d);
        }
        s
    }
}

/// Whole-program liveness: site id → live slot set.
#[derive(Debug, Clone)]
pub struct Liveness {
    pub per_fun: Vec<FunLiveness>,
    /// Indexed by `CallSiteId`.
    pub site_live: Vec<SlotSet>,
}

impl Liveness {
    /// Computes liveness for every function and call site of the program.
    pub fn compute(p: &IrProgram) -> Liveness {
        let per_fun: Vec<FunLiveness> = p.funs.iter().map(FunLiveness::compute).collect();
        let mut site_live = Vec::with_capacity(p.sites.len());
        for site in &p.sites {
            let f = &p.funs[site.fn_id.0 as usize];
            site_live.push(per_fun[site.fn_id.0 as usize].site_live(f, site.pc));
        }
        Liveness { per_fun, site_live }
    }

    /// The live set at a site.
    pub fn at(&self, id: CallSiteId) -> &SlotSet {
        &self.site_live[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_ir::{lower, SiteKind, Slot};
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn compile(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn dead_after_use_is_not_live() {
        // `x` is dead once `x + x` is computed; at the tuple allocation it
        // must not be live.
        let p = compile("let val x = [1] val y = 2 + 2 in (y, y) end");
        let live = Liveness::compute(&p);
        // Find the tuple allocation site in main.
        let site = p
            .sites
            .iter()
            .rev()
            .find(|s| matches!(s.kind, SiteKind::Alloc { .. }) && s.fn_id == p.main)
            .expect("tuple site");
        let set = live.at(site.id);
        // The slot bound to x holds the only int list in main's frame.
        let main = p.fun(p.main);
        let list_slots: Vec<Slot> = main
            .slots
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(t, tfgc_ir::SlotTy::Val(ty) if *ty == tfgc_types::Type::list(tfgc_types::Type::Int))
            })
            .map(|(i, _)| Slot(i as u16))
            .collect();
        for s in list_slots {
            assert!(
                !set.contains(s),
                "dead list slot {s:?} should not be live at final tuple site"
            );
        }
    }

    #[test]
    fn paper_append_recursive_site_has_no_live_pointers() {
        // §2.4: "garbage collection never needs to trace the elements of an
        // append activation record". The value of `x` (an int) is the only
        // thing live across the recursive call.
        let p = compile(
            "fun append [] (ys : int list) = ys
               | append (x :: xs) ys = x :: append xs ys ;
             append [1] [2]",
        );
        let live = Liveness::compute(&p);
        let append = p
            .funs
            .iter()
            .position(|f| f.name.starts_with("append"))
            .unwrap();
        for site in &p.sites {
            if site.fn_id.0 as usize != append {
                continue;
            }
            let set = live.at(site.id);
            // Any live slot at any append site must be of int type —
            // nothing heap-allocated survives across a call.
            for s in set.iter() {
                let ty = &p.funs[append].slots[s.0 as usize];
                assert_eq!(
                    ty,
                    &tfgc_ir::SlotTy::Val(tfgc_types::Type::Int),
                    "append keeps non-int slot {s:?} live at site {}",
                    site.id.0
                );
            }
        }
    }

    #[test]
    fn arguments_still_live_when_used_after_call() {
        let p = compile("fun f x = x + 1 ; let val a = 5 in f a + a end");
        let live = Liveness::compute(&p);
        let main = p.fun(p.main);
        // The site calling f: `a`'s slot must be live (used again after).
        let site = p
            .sites
            .iter()
            .find(|s| s.fn_id == p.main && matches!(s.kind, SiteKind::Direct { .. }))
            .unwrap();
        let set = live.at(site.id);
        assert!(
            !set.is_empty(),
            "slot of `a` must stay live across the call"
        );
        let _ = main;
    }

    #[test]
    fn branch_liveness_joins_paths() {
        let p = compile(
            "fun pick b = if b then [1] else [2] ;
             let val xs = pick true in case xs of [] => 0 | x :: _ => x end",
        );
        let live = Liveness::compute(&p);
        // Liveness computed for every function without panicking, and all
        // site sets are within slot bounds.
        for (i, set) in live.site_live.iter().enumerate() {
            let f = &p.funs[p.sites[i].fn_id.0 as usize];
            assert_eq!(set.capacity(), f.slots.len());
        }
    }
}
