//! Program-aware observability exports.
//!
//! `tfgc-obs` speaks raw site/function ids so it can sit below the IR;
//! this module joins its recordings back against the [`IrProgram`] —
//! labeling allocation sites, decorating metrics documents, and
//! rendering the `tfml profile` report.

use crate::report::Table;
use tfgc_ir::{IrProgram, SiteKind};
use tfgc_obs::{Json, RingRecorder};

/// A human label for a call/allocation site: `function@pc (kind)`.
pub fn site_label(prog: &IrProgram, site: u32) -> String {
    match prog.sites.get(site as usize) {
        None => format!("site#{site}"),
        Some(s) => {
            let f = &prog.funs[s.fn_id.0 as usize];
            format!("{}@{} ({})", f.name, s.pc, site_kind(prog, &s.kind))
        }
    }
}

/// What a site does: `call f`, `callclos`, or `alloc/n` for an
/// allocation of `n` operands.
pub fn site_kind(prog: &IrProgram, kind: &SiteKind) -> String {
    match kind {
        SiteKind::Direct { callee, .. } => format!("call {}", prog.funs[callee.0 as usize].name),
        SiteKind::Closure { .. } => "callclos".to_string(),
        SiteKind::Alloc { operand_tys } => format!("alloc/{}", operand_tys.len()),
    }
}

/// The recorder's metrics document with a `label` resolved from the
/// program injected into every per-site entry.
pub fn metrics_json(rec: &RingRecorder, prog: &IrProgram) -> Json {
    let mut doc = rec.metrics_json();
    if let Json::Obj(pairs) = &mut doc {
        for (key, value) in pairs.iter_mut() {
            if key != "sites" {
                continue;
            }
            if let Json::Arr(items) = value {
                for item in items.iter_mut() {
                    if let Json::Obj(fields) = item {
                        let site = fields
                            .iter()
                            .find(|(k, _)| k == "site")
                            .and_then(|(_, v)| v.as_f64())
                            .map_or(u32::MAX, |f| f as u32);
                        fields.insert(1, ("label".to_string(), Json::str(site_label(prog, site))));
                    }
                }
            }
        }
    }
    doc
}

/// The `tfml profile` report: pause/allocation distributions, the
/// allocation-site ranking, and one line per collection.
pub fn profile_report(rec: &RingRecorder, prog: &IrProgram) -> String {
    let mut out = String::new();
    let ph = rec.pause_hist();
    let ah = rec.alloc_hist();
    out.push_str(&format!(
        "strategy {}\ncollections {}  pause ns: p50 {}  p90 {}  p99 {}  max {}  mean {:.0}\n",
        rec.strategy().unwrap_or("-"),
        rec.collections().len(),
        ph.p50(),
        ph.p90(),
        ph.p99(),
        ph.max(),
        ph.mean(),
    ));
    out.push_str(&format!(
        "allocations {}  words: p50 {}  p99 {}  max {}  mean {:.1}\n\n",
        ah.count(),
        ah.p50(),
        ah.p99(),
        ah.max(),
        ah.mean(),
    ));

    let mut sites = Table::new(&[
        "site",
        "label",
        "allocs",
        "words",
        "survivors",
        "survivor words",
    ]);
    for (site, p) in rec.sites().top_by_words(20) {
        sites.row(vec![
            site.to_string(),
            site_label(prog, site),
            p.allocs.to_string(),
            p.words.to_string(),
            p.survivors.to_string(),
            p.survivor_words.to_string(),
        ]);
    }
    out.push_str(&sites.render());

    if !rec.collections().is_empty() {
        out.push('\n');
        let mut gcs = Table::new(&[
            "gc", "trigger", "before", "after", "copied", "frames", "routines", "pause ns",
        ]);
        for c in rec.collections() {
            gcs.row(vec![
                c.seq.to_string(),
                site_label(prog, c.trigger_site),
                c.heap_used_before.to_string(),
                c.heap_used_after.to_string(),
                c.words_copied.to_string(),
                c.frames_visited.to_string(),
                c.routine_invocations.to_string(),
                c.pause_ns.to_string(),
            ]);
        }
        out.push_str(&gcs.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiled;
    use tfgc_gc::Strategy;
    use tfgc_vm::VmConfig;

    fn churn() -> Compiled {
        Compiled::compile(
            "fun build n = if n = 0 then [] else n :: build (n - 1) ;
             fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;
             fun go n = if n = 0 then 0 else sum (build 30) + go (n - 1) ;
             go 40",
        )
        .expect("compiles")
    }

    #[test]
    fn profiled_run_labels_sites_and_reports() {
        let c = churn();
        let cfg = VmConfig::new(Strategy::Compiled).heap_words(1 << 9);
        let (out, rec) = c.run_profiled(cfg, 1 << 12).expect("runs");
        assert!(out.heap.collections > 0, "heap small enough to collect");
        assert_eq!(rec.collections().len() as u64, out.heap.collections);

        let report = profile_report(&rec, &c.program);
        assert!(report.contains("collections"));
        assert!(report.contains("alloc"), "site labels name allocations");

        let doc = metrics_json(&rec, &c.program);
        let text = doc.to_json_pretty();
        let back = tfgc_obs::json::parse(&text).expect("parses");
        let sites = back.get("sites").unwrap().as_arr().unwrap();
        assert!(!sites.is_empty());
        assert!(sites[0].get("label").is_some(), "labels injected");
    }

    #[test]
    fn site_label_handles_unknown_sites() {
        let c = churn();
        assert_eq!(
            site_label(&c.program, u32::MAX),
            format!("site#{}", u32::MAX)
        );
    }
}
