//! Plain-text table rendering for experiment reports.

use tfgc_obs::Json;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns. A zero-column table
    /// renders as the empty string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        if ncols == 0 {
            return String::new();
        }
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..widths[i] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }
}

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
/// its cell empty). Every experiment table and `tfml serve`'s summary
/// are printed through this.
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

/// Formats a ratio as `x.yz×`.
pub fn ratio(n: f64, d: f64) -> String {
    if d == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", n / d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "23".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
        // Columns align: "value" starts at the same offset everywhere.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
    }

    #[test]
    fn zero_column_table_renders_empty() {
        // Regression: `2 * (ncols - 1)` underflowed for a header-less
        // table.
        let t = Table::new(&[]);
        assert_eq!(t.render(), "");
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

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_length_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only".into()]);
    }
}
