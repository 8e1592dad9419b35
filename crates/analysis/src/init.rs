//! Definite-assignment analysis.
//!
//! §1.1.1 points out that uninitialized variables "present a problem to
//! the garbage collector (it may think that an uninitialized pointer
//! contains a valid address)". This module computes the *definitely
//! assigned before pc* sets. The compiled and interpreted frame routines
//! trace only slots in them (the metadata build starts each site's slot
//! set from its assigned set, then narrows it to the live ones), so no
//! routine reads an uninitialized slot.
//! [`InitAnalysis::validate_live_assigned`] checks the stronger property
//! that generated code never leaves a live slot unassigned at a GC point;
//! only tests run it.
//!
//! The Appel-style single-descriptor strategy (§1.1.1) cannot consult
//! per-site assignment information, which is why that strategy forces the
//! VM to zero-initialize whole frames at entry — a cost experiment E3
//! measures.

use crate::bitset::SlotSet;
use crate::liveness::Liveness;
use tfgc_ir::{IrFun, IrProgram, Slot};

/// Per-function definite-assignment solution.
#[derive(Debug, Clone)]
pub struct FunInit {
    /// Slots definitely assigned *before* executing `pc`.
    pub assigned_in: Vec<SlotSet>,
}

impl FunInit {
    /// Computes definite assignment for one function. Parameters (the
    /// first `n_params` slots) are assigned at entry.
    pub fn compute(f: &IrFun) -> FunInit {
        let n = f.code.len();
        let slots = f.slots.len();
        // Forward must-analysis: meet is intersection, so start from the
        // full set everywhere except entry.
        let mut assigned_in = vec![SlotSet::full(slots); n];
        let mut entry = SlotSet::new(slots);
        for i in 0..f.n_params {
            entry.insert(Slot(i));
        }
        if n > 0 {
            assigned_in[0] = entry;
        }
        // Scratch set reused by every step of every sweep.
        let mut out = SlotSet::new(slots);
        let mut changed = true;
        while changed {
            changed = false;
            for pc in 0..n {
                out.copy_from(&assigned_in[pc]);
                if let Some(d) = f.code[pc].def() {
                    out.insert(d);
                }
                for succ in f.code[pc].successors(pc as u32) {
                    changed |= assigned_in[succ as usize].intersect_with(&out);
                }
            }
        }
        FunInit { assigned_in }
    }

    /// Slots definitely assigned when a collection can occur at `pc`
    /// (i.e. after the instruction started: its own def has not happened).
    pub fn at_site(&self, pc: u32) -> &SlotSet {
        &self.assigned_in[pc as usize]
    }
}

/// Whole-program definite assignment.
#[derive(Debug, Clone)]
pub struct InitAnalysis {
    pub per_fun: Vec<FunInit>,
    /// Indexed by call site id.
    pub site_assigned: Vec<SlotSet>,
}

impl InitAnalysis {
    /// Computes the analysis for every function and site.
    pub fn compute(p: &IrProgram) -> InitAnalysis {
        let per_fun: Vec<FunInit> = p.funs.iter().map(FunInit::compute).collect();
        let site_assigned = p
            .sites
            .iter()
            .map(|s| per_fun[s.fn_id.0 as usize].at_site(s.pc).clone())
            .collect();
        InitAnalysis {
            per_fun,
            site_assigned,
        }
    }

    /// Validates that every live slot at every site is definitely
    /// assigned — the well-formedness property compiled frame routines
    /// rely on.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn validate_live_assigned(&self, p: &IrProgram, live: &Liveness) -> Result<(), String> {
        for site in &p.sites {
            let l = &live.site_live[site.id.0 as usize];
            let a = &self.site_assigned[site.id.0 as usize];
            if !l.is_subset(a) {
                let f = &p.funs[site.fn_id.0 as usize];
                return Err(format!(
                    "function {} pc {}: live slots not definitely assigned at GC point",
                    f.name, site.pc
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_ir::lower;
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn compile(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn params_assigned_at_entry() {
        let p = compile("fun f x y = x + y ; f 1 2");
        let f = p.funs.iter().find(|f| f.name.starts_with("f#")).unwrap();
        let init = FunInit::compute(f);
        assert!(init.assigned_in[0].contains(Slot(0)));
        assert!(init.assigned_in[0].contains(Slot(1)));
    }

    #[test]
    fn branch_join_is_intersection() {
        // The if's result slot is assigned on both branches, so it is
        // definitely assigned after the join; branch-local temps are not.
        let p = compile("fun f b = if b then [1] else [] ; case f true of [] => 0 | x :: _ => x");
        let init = InitAnalysis::compute(&p);
        let live = Liveness::compute(&p);
        init.validate_live_assigned(&p, &live).unwrap();
    }

    #[test]
    fn generated_code_is_always_live_implies_assigned() {
        let srcs = [
            "fun append [] ys = ys | append (x :: xs) ys = x :: append xs ys ; append [1] [2]",
            "fun map f xs = case xs of [] => [] | x :: r => f x :: map f r ; map (fn x => x) [1]",
            "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree ;
             fun insert t x = case t of Leaf => Node (Leaf, x, Leaf)
               | Node (l, v, r) => if x < v then Node (insert l x, v, r) else Node (l, v, insert r x) ;
             insert (insert Leaf 3) 1",
            "let val f = fn x => fn y => (x, y) in f 1 2 end",
        ];
        for src in srcs {
            let p = compile(src);
            let init = InitAnalysis::compute(&p);
            let live = Liveness::compute(&p);
            init.validate_live_assigned(&p, &live)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }
}
