//! # tfgc-bench — the experiment suite
//!
//! [`export::bench_json`] is the one definition of each experiment (E1–E10,
//! E13 and E15, see EXPERIMENTS.md): it runs the experiment and returns its
//! document, whose `rows` array holds what the experiment's table shows.
//! [`render`] turns a document into that table. The `experiments` binary
//! prints every table or, with `--json`, writes the documents themselves:
//!
//! ```sh
//! cargo run --release -p tfgc-bench --bin experiments
//! cargo run --release -p tfgc-bench --bin experiments -- --json
//! ```
//!
//! Repeated wall-clock timing lives in the repo benchmark
//! (`examples/benchmark`), not here.

use tfgc::obs::Json;
use tfgc::Table;

pub mod export;

/// One table cell: strings as they are, integers in full, other numbers
/// to four significant digits, `null` as `-`.
fn cell(v: &Json) -> Result<String, String> {
    Ok(match v {
        Json::Null => "-".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() == 0.0 => format!("{n:.0}"),
        Json::Num(n) => {
            let decimals = (3 - n.abs().log10().floor() as i32).max(0) as usize;
            format!("{n:.decimals$}")
        }
        nested => return Err(format!("nested value in a row: {}", nested.to_json())),
    })
}

/// Renders `rows` as an aligned table: the columns are the rows' keys in
/// first-seen order, and each row is one line (a key a row lacks leaves
/// its cell empty).
///
/// # Errors
///
/// A row that is not an object, or a value that is an array or object.
pub fn render_rows(rows: &[Json]) -> Result<String, String> {
    let mut columns: Vec<&str> = Vec::new();
    for row in rows {
        let Json::Obj(pairs) = row else {
            return Err(format!("row is not an object: {}", row.to_json()));
        };
        for (k, _) in pairs {
            if !columns.contains(&k.as_str()) {
                columns.push(k);
            }
        }
    }
    let mut t = Table::new(&columns);
    for row in rows {
        let cells = columns
            .iter()
            .map(|k| row.get(k).map_or(Ok(String::new()), cell))
            .collect::<Result<_, _>>()?;
        t.row(cells);
    }
    let text = t.render();
    let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
    Ok(lines.join("\n") + "\n")
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
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("document has no `rows`")?;
    Ok(format!(
        "{} — {}\n{}",
        field("experiment")?,
        field("title")?,
        render_rows(rows)?
    ))
}

/// Every experiment's table, rendered from [`export::bench_json`] in
/// [`export::EXPERIMENTS`] order.
pub fn all_experiments() -> String {
    export::EXPERIMENTS
        .iter()
        .map(|id| render(&export::bench_json(id)).unwrap_or_else(|e| panic!("{id}: {e}")))
        .collect::<Vec<_>>()
        .join("\n")
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

    #[test]
    fn renderer_columns_are_the_row_keys() {
        let rows = [
            Json::obj([
                ("name", Json::str("a")),
                ("n", Json::from(3u64)),
                ("ratio", Json::Num(1.5)),
            ]),
            Json::obj([
                ("name", Json::str("bb")),
                ("n", Json::from(1234u64)),
                ("ratio", Json::Null),
            ]),
        ];
        let text = render_rows(&rows).unwrap();
        let lines: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Header, rule, then one line per row.
        assert_eq!(lines.len(), 2 + rows.len(), "{text}");
        assert_eq!(lines[0], ["name", "n", "ratio"]);
        assert_eq!(lines[2], ["a", "3", "1.500"]);
        assert_eq!(lines[3], ["bb", "1234", "-"]);

        let nested = [Json::obj([("hist", Json::arr([Json::from(1u64)]))])];
        assert!(render_rows(&nested).is_err());
        assert!(render_rows(&[Json::from(1u64)]).is_err());
    }
}
