//! # tfgc-bench — the experiment suite
//!
//! [`export::bench_json`] is the one definition of each experiment
//! (E1–E13 and E15, see EXPERIMENTS.md): it runs the experiment and
//! returns its document, whose `rows` array holds what the experiment's
//! table shows. [`render`] turns a document into that table. The
//! `experiments` binary writes the documents (`--json`), checks the
//! committed ones against a fresh run (`--check`), and prints the tables
//! of the committed ones (`--render`), which are EXPERIMENTS.md's tables:
//!
//! ```sh
//! cargo run --release -p tfgc-bench --bin experiments -- --json
//! cargo run --release -p tfgc-bench --bin experiments -- --check .
//! cargo run --release -p tfgc-bench --bin experiments -- --render .
//! ```
//!
//! Repeated wall-clock timing lives in the repo benchmark
//! (`examples/benchmark`), not here.

use std::path::Path;
use tfgc::obs::Json;
use tfgc::render_rows;

pub mod export;

/// The rows of an experiment document.
///
/// # Errors
///
/// A document without a `rows` array.
fn rows(doc: &Json) -> Result<&[Json], String> {
    doc.get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "document has no `rows`".to_string())
}

/// The text form of an experiment document: its id and title, then its
/// `rows` as a table.
///
/// # Errors
///
/// A document without `experiment`, `title` or `rows`, or rows
/// [`render_rows`] rejects.
pub fn render(doc: &Json) -> Result<String, String> {
    let field = |k: &str| match doc.get(k) {
        Some(Json::Str(s)) => Ok(s.as_str()),
        _ => Err(format!("document has no `{k}`")),
    };
    Ok(format!(
        "{} — {}\n{}",
        field("experiment")?,
        field("title")?,
        render_rows(rows(doc)?)?
    ))
}

/// Every committed document's table: [`render`] of `dir/BENCH_<id>.json`
/// in [`export::EXPERIMENTS`] order. Runs nothing.
///
/// # Errors
///
/// Names the first file that is missing, not JSON, or not renderable.
pub fn render_dir(dir: &Path) -> Result<String, String> {
    let tables = export::EXPERIMENTS
        .iter()
        .map(|id| render(&export::read_doc(dir, id)?).map_err(|e| format!("BENCH_{id}.json: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(tables.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use export::bench_json;

    fn rows(id: &str) -> Vec<Json> {
        bench_json(id)
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec()
    }

    fn num(row: &Json, key: &str) -> f64 {
        row.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no number `{key}` in {row:?}"))
    }

    #[test]
    fn e1_tagged_never_allocates_fewer_words() {
        let rows = rows("E1");
        assert!(rows
            .iter()
            .any(|r| r.get("workload") == Some(&Json::str("churn"))));
        for r in &rows {
            assert!(num(r, "tagged_words") >= num(r, "tagfree_words"), "{r:?}");
        }
    }

    #[test]
    fn e6_refinement_only_removes_more_gc_words() {
        for r in rows("E6") {
            assert!(
                num(&r, "omitted_refined") >= num(&r, "omitted_first_order"),
                "{r:?}"
            );
        }
    }

    #[test]
    fn e8_append_never_traces() {
        let rows = rows("E8");
        assert_eq!(rows.len(), 1);
        assert!(num(&rows[0], "call_sites") > 0.0);
        assert_eq!(num(&rows[0], "sites_that_trace"), 0.0);
    }

    /// EXPERIMENTS.md shows each committed document's table verbatim,
    /// as one fenced block: regenerate it with `experiments --render .`
    /// when a baseline changes. The frozen historical tables beside them
    /// are not rendered from anything.
    #[test]
    fn experiments_md_shows_every_committed_table() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let md = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
        for id in export::EXPERIMENTS {
            let doc = export::read_doc(&root, id).unwrap();
            let table = render_rows(super::rows(&doc).unwrap()).unwrap();
            assert!(
                md.contains(&format!("```\n{table}```\n")),
                "EXPERIMENTS.md lacks the table of BENCH_{id}.json:\n{table}"
            );
        }
    }

    /// The files and directories under `root`, as paths relative to it,
    /// without git's store and build outputs (`target`).
    fn tree(root: &Path) -> Vec<String> {
        let (mut out, mut dirs) = (Vec::new(), vec![String::new()]);
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(root.join(&dir)).unwrap() {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                if name == ".git" || name == "target" {
                    continue;
                }
                let path = if dir.is_empty() {
                    name
                } else {
                    format!("{dir}/{name}")
                };
                if entry.file_type().unwrap().is_dir() {
                    dirs.push(path.clone());
                }
                out.push(path);
            }
        }
        out
    }

    /// Every file path a document shows in backticks outside its code
    /// blocks names a file or directory in the tree; a bare file name or
    /// a path suffix matches. A span is a path when it is one word of
    /// path characters that contains a `/` or ends in a file name with
    /// an extension. Paths under `target/` exist only after a build.
    #[test]
    fn docs_name_only_files_in_the_tree() {
        const EXTS: [&str; 9] = [
            "rs", "md", "json", "toml", "tfml", "digests", "yml", "lock", "jsonl",
        ];
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let tree = tree(&root);
        let is_path = |span: &str| {
            let word = span.trim_end_matches('/');
            let chars = |part: &str| {
                !part.is_empty()
                    && part
                        .chars()
                        .all(|c| c.is_alphanumeric() || matches!(c, '.' | '_' | '-'))
            };
            let file = word.rsplit('/').next().unwrap().rsplit_once('.');
            !span.starts_with('-')
                && !span.starts_with("target/")
                && word.split('/').all(chars)
                && (span.contains('/')
                    || file.is_some_and(|(stem, ext)| !stem.is_empty() && EXTS.contains(&ext)))
        };
        let mut checked = 0;
        let mut missing = Vec::new();
        for doc in [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(root.join(doc)).unwrap();
            let mut fenced = false;
            let prose: String = text
                .lines()
                .filter(|l| {
                    fenced ^= l.starts_with("```");
                    !fenced && !l.starts_with("```")
                })
                .map(|l| format!("{l}\n"))
                .collect();
            for span in prose.split('`').skip(1).step_by(2).filter(|s| is_path(s)) {
                checked += 1;
                let path = span.trim_end_matches('/');
                if !tree
                    .iter()
                    .any(|t| t == path || t.ends_with(&format!("/{path}")))
                {
                    missing.push(format!("{doc}: `{span}`"));
                }
            }
        }
        assert!(
            checked > 50,
            "the scan must find the docs' paths: {checked}"
        );
        assert!(
            missing.is_empty(),
            "paths naming no file in the tree: {missing:#?}"
        );
    }

    /// The root manifest keeps debug assertions and overflow checks on in
    /// the profiles tests build with (`dev`, and `test`, which inherits
    /// it): the heap's collection-bracket checks are debug assertions.
    /// Reads the manifest, so it holds under `cargo test --release` too.
    #[test]
    fn test_profiles_keep_debug_assertions_and_overflow_checks() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let mut section = "";
        let mut off = Vec::new();
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let testing =
                section.starts_with("[profile.dev") || section.starts_with("[profile.test");
            let key = key.trim();
            let value = value.split('#').next().unwrap().trim();
            if testing && matches!(key, "debug-assertions" | "overflow-checks") && value == "false"
            {
                off.push(format!("{section} {line}"));
            }
        }
        assert!(off.is_empty(), "a test profile turns checks off: {off:?}");
    }
}
