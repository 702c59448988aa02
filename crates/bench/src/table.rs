//! Aligned-table rendering for experiment output.
//!
//! Experiments return GitHub-flavoured markdown tables; each cell keeps
//! the number it shows, so `tests/paper_claims.rs` reads a column by
//! header while `tests/golden/paper/` pins the rendered text.

/// One cell: its rendered text and, where it shows one, its number.
#[derive(Debug, Clone)]
pub struct Cell {
    text: String,
    num: Option<f64>,
}

/// A cell showing `num` as `text` (`"46/120"`, `"1.04x"`, `"10 s"`).
pub fn cell(num: f64, text: impl Into<String>) -> Cell {
    Cell {
        text: text.into(),
        num: Some(num),
    }
}

/// A float cell with the given precision.
pub fn f(v: f64, prec: usize) -> Cell {
    cell(v, format!("{v:.prec$}"))
}

impl From<String> for Cell {
    fn from(text: String) -> Self {
        Cell { text, num: None }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Self {
        text.to_string().into()
    }
}

macro_rules! count_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                cell(v as f64, v.to_string())
            }
        }
    )*};
}
count_cells!(u32, u64, usize);

/// A simple right-aligned markdown table, optionally preceded by note
/// lines (a reference run the rows are read against).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    notes: Vec<String>,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            notes: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a line printed above the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    fn column(&self, header: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column '{header}' in table '{}'", self.title))
    }

    /// The rows whose `header` cell starts with `prefix`, as a table.
    pub fn select(&self, header: &str, prefix: &str) -> Table {
        let c = self.column(header);
        let rows = self.rows.iter().filter(|r| r[c].text.starts_with(prefix));
        Table {
            rows: rows.cloned().collect(),
            ..self.clone()
        }
    }

    /// The numbers in column `header`, top to bottom; `None` where a
    /// cell shows none (`"-"`).
    pub fn nums(&self, header: &str) -> Vec<Option<f64>> {
        let c = self.column(header);
        self.rows.iter().map(|r| r[c].num).collect()
    }

    /// The numbers in column `header`, every cell showing one.
    pub fn col(&self, header: &str) -> Vec<f64> {
        let texts = self.texts(header);
        (self.nums(header).into_iter().zip(texts))
            .map(|(n, t)| n.unwrap_or_else(|| panic!("'{t}' shows no number")))
            .collect()
    }

    /// The texts in column `header`, top to bottom.
    pub fn texts(&self, header: &str) -> Vec<&str> {
        let c = self.column(header);
        self.rows.iter().map(|r| r[c].text.as_str()).collect()
    }

    /// Render as markdown with aligned columns, notes first.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.text.len());
            }
        }
        let mut out: String = self.notes.iter().map(|n| format!("{n}\n")).collect();
        out.push_str(&format!("\n### {}\n\n", self.title));
        let fmt_row = |cells: &mut dyn Iterator<Item = &str>| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.zip(&widths) {
                line.push_str(&format!(" {c:>w$} |", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&mut self.headers.iter().map(|h| h.as_str())));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}:|", "-".repeat(w + 1)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(&mut row.iter().map(|c| c.text.as_str())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(vec![1u64.into(), f(10.5, 1)]);
        t.row(vec![200u64.into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("### demo"));
        assert!(s.contains("|   x | value |"));
        assert!(s.contains("| 200 |     3 |"));
        assert!(s.contains("----:|"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_helper() {
        assert_eq!(f(1.23456, 2).text, "1.23");
        assert_eq!(f(10.0, 0).text, "10");
    }

    #[test]
    fn cells_keep_their_numbers() {
        let mut t = Table::new("demo", &["variant", "kills", "roots"]);
        t.note("reference: 3");
        t.row(vec![
            "baseline".into(),
            10u64.into(),
            cell(118.0, "118/120"),
        ]);
        t.row(vec!["loop: a".into(), 2usize.into(), "-".into()]);
        t.row(vec!["loop: b".into(), 5u32.into(), cell(120.0, "120/120")]);
        assert!(t.render().starts_with("reference: 3\n\n### demo\n"));
        assert_eq!(t.col("kills"), [10.0, 2.0, 5.0]);
        assert_eq!(t.select("variant", "loop").col("kills"), [2.0, 5.0]);
        assert_eq!(t.select("variant", "loop: b").col("roots"), [120.0]);
        assert_eq!(t.texts("roots"), ["118/120", "-", "120/120"]);
        assert_eq!(t.nums("roots"), [Some(118.0), None, Some(120.0)]);
    }

    #[test]
    #[should_panic(expected = "shows no number")]
    fn text_cells_have_no_number() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["-".into()]);
        t.col("a");
    }
}
