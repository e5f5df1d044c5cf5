//! One table type for every exhibit, with one markdown renderer and one
//! JSON renderer over the same cells.
//!
//! The paper reports each result as a share of its downloads, so a rate
//! cell keeps its numerator and denominator ([`Count`]) and a mean keeps
//! its sample count. The percentage is worked out only when printed.

use std::fmt::Write as _;

use crate::json::{object, Json, ToJson};

/// `k` of `n`: how many trials (or objects) met a criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    /// How many met it.
    pub k: u64,
    /// How many were counted.
    pub n: u64,
}

impl Count {
    /// `k` of `n`.
    pub fn new(k: impl Into<u64>, n: impl Into<u64>) -> Count {
        let (k, n) = (k.into(), n.into());
        Count { k, n }
    }

    /// `k` as a percentage of `n`; 0 when `n` is 0.
    pub fn pct(self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.k as f64 * 100.0 / self.n as f64
    }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count, printed as a percentage or as `k/n`.
    Count(Count),
    /// A mean over `n` samples.
    Mean {
        /// The mean.
        mean: f64,
        /// Samples averaged.
        n: u64,
    },
    /// A plain number.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// Text.
    Text(String),
    /// No value: `-` in a table, `null` in JSON.
    Missing,
}

impl Cell {
    /// The mean of `values`, with their number.
    pub fn mean(values: &[f64]) -> Cell {
        let mean = h2priv_analysis::stats::mean(values);
        let n = values.len() as u64;
        Cell::Mean { mean, n }
    }

    fn print(&self, fmt: Fmt) -> String {
        let decimals = if let Fmt::Fixed(d) = fmt { d } else { 0 };
        match (self, fmt) {
            (Cell::Count(c), Fmt::Ratio(width)) => format!("{}/{:<width$}", c.k, c.n),
            (Cell::Count(c), _) => format!("{:.decimals$}", c.pct()),
            (Cell::Mean { mean: x, .. } | Cell::Num(x), _) => format!("{x:.decimals$}"),
            (Cell::Int(v), _) => v.to_string(),
            (Cell::Text(s), Fmt::Paren) => format!(" ({s})"),
            (Cell::Text(s), _) => s.clone(),
            (Cell::Missing, _) => "-".to_owned(),
        }
    }
}

impl From<Count> for Cell {
    fn from(c: Count) -> Cell {
        Cell::Count(c)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}
impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Num(x)
    }
}
impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_owned())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        match self {
            Cell::Count(c) => object([("k", c.k.to_json()), ("n", c.n.to_json())]),
            Cell::Mean { mean, n } => object([("mean", mean.to_json()), ("n", n.to_json())]),
            Cell::Num(x) => x.to_json(),
            Cell::Int(v) => v.to_json(),
            Cell::Text(s) => s.to_json(),
            Cell::Missing => Json::Null,
        }
    }
}

/// How a column prints its cells: right-aligned unless stated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// Left-aligned text.
    Left,
    /// Numbers with this many decimals, a count as its percentage, and
    /// text as it is.
    Fixed(usize),
    /// A count as `k/n`, with `n` left-aligned in this width.
    Ratio(usize),
    /// Left-aligned text in parentheses, two spaces after the previous
    /// column: a per-row unit.
    Paren,
}

/// One table column.
#[derive(Debug, Clone)]
pub struct Column {
    /// Header text, and the cell's key in JSON.
    pub name: &'static str,
    /// Printed width; under a header, the name's length when that is
    /// larger.
    pub width: usize,
    /// How cells print.
    pub fmt: Fmt,
}

impl Column {
    /// A column.
    pub fn new(name: &'static str, width: usize, fmt: Fmt) -> Column {
        Column { name, width, fmt }
    }

    /// Writes a space, then `text` padded to `width` on the column's side.
    fn pad(&self, out: &mut String, text: &str, width: usize) {
        let _ = match self.fmt {
            Fmt::Left | Fmt::Paren => write!(out, " {text:<width$}"),
            _ => write!(out, " {text:>width$}"),
        };
    }
}

/// How a table prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A markdown pipe table under its title line.
    Pipe,
    /// A pipe table printed one column per line, after its title line:
    /// each line starts with the column's name padded to this width, and
    /// there is no rule (Table II).
    Transposed(usize),
    /// Rows indented under a `-- title` line, after a line of column
    /// names when `header` holds.
    Indented {
        /// Whether the column names print.
        header: bool,
    },
}

/// One exhibit table: a title, columns, rows of cells and notes printed
/// right after the rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// The title line.
    pub title: String,
    layout: Layout,
    columns: Vec<Column>,
    /// One cell per column in each row: [`Table::push`] checks it.
    rows: Vec<Vec<Cell>>,
    /// Lines printed right after the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, layout: Layout, columns: Vec<Column>) -> Table {
        Table {
            title: title.into(),
            layout,
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row, one cell per column.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.title);
        self.rows.push(row);
    }

    /// The table as the `repro` output prints it.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let names: Vec<String> = self.columns.iter().map(|c| c.name.to_owned()).collect();
        let rows = self.rows.iter().map(|row| {
            let cells = self.columns.iter().zip(row);
            cells.map(|(c, cell)| cell.print(c.fmt)).collect::<Vec<_>>()
        });
        // `lead`, then each text padded under its column's name and
        // followed by `tail`.
        let line = |out: &mut String, lead: &str, tail: &str, texts: &[String]| {
            out.push_str(lead);
            for (c, text) in self.columns.iter().zip(texts) {
                c.pad(out, text, c.width.max(c.name.len()));
                out.push_str(tail);
            }
            out.push('\n');
        };
        let indented = matches!(self.layout, Layout::Indented { .. });
        let _ = writeln!(out, "{}{}", if indented { "-- " } else { "" }, self.title);
        match self.layout {
            Layout::Pipe => {
                line(&mut out, "|", " |", &names);
                out.push('|');
                for c in &self.columns {
                    out.push_str(&"-".repeat(c.width.max(c.name.len()) + 1));
                    out.push_str(if c.fmt == Fmt::Left { "-|" } else { ":|" });
                }
                out.push('\n');
                rows.for_each(|row| line(&mut out, "|", " |", &row));
            }
            Layout::Transposed(label) => {
                let rows: Vec<Vec<String>> = rows.collect();
                for (i, c) in self.columns.iter().enumerate() {
                    let _ = write!(out, "| {:<label$} |", c.name);
                    for row in &rows {
                        c.pad(&mut out, &row[i], c.width);
                        out.push_str(" |");
                    }
                    out.push('\n');
                }
            }
            Layout::Indented { header } => {
                if header {
                    line(&mut out, "  ", "", &names);
                }
                rows.for_each(|row| line(&mut out, "  ", "", &row));
            }
        }
        lines(&mut out, &self.notes);
        out
    }
}

fn lines(out: &mut String, lines: &[String]) {
    for line in lines {
        let _ = writeln!(out, "{line}");
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|row| {
            let names = self.columns.iter().map(|c| c.name.to_owned());
            Json::Object(names.zip(row.iter().map(Cell::to_json)).collect())
        });
        object([
            ("title", self.title.to_json()),
            ("rows", Json::Array(rows.collect())),
            ("notes", self.notes.to_json()),
        ])
    }
}

/// What one exhibit prints: lines above its tables, the tables, and
/// notes below them after a blank line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Lines printed first: the exhibit's heading and any prose.
    pub head: Vec<String>,
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Lines printed last, after a blank line: plots and remarks.
    pub notes: Vec<String>,
}

impl From<Table> for Report {
    fn from(table: Table) -> Report {
        Report {
            tables: vec![table],
            ..Report::default()
        }
    }
}

impl Report {
    /// The report as the `repro` output prints it.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        lines(&mut out, &self.head);
        self.tables.iter().for_each(|t| out.push_str(&t.markdown()));
        out.push_str(if self.notes.is_empty() { "" } else { "\n" });
        lines(&mut out, &self.notes);
        out
    }

    /// The report as one JSON object, under the exhibit's `name`.
    pub fn to_json(&self, name: &str) -> Json {
        object([
            ("name", name.to_json()),
            ("head", self.head.to_json()),
            ("tables", self.tables.to_json()),
            ("notes", self.notes.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(k: u64) -> Cell {
        Count::new(k, 100u64).into()
    }

    /// Table I, §IV-D and the fleet: names set the widths, the rule marks
    /// alignment, and a count prints as its percentage or as `k/n`.
    #[test]
    fn pipe_layout() {
        let columns = vec![
            Column::new("jitter/request (ms)", 0, Fmt::Fixed(0)),
            Column::new("run", 5, Fmt::Left),
            Column::new("not multiplexed (%)", 0, Fmt::Fixed(0)),
            Column::new("requests done", 0, Fmt::Ratio(5)),
        ];
        let mut t = Table::new("TABLE", Layout::Pipe, columns);
        t.push(vec!["0 (baseline)".into(), "a".into(), pct(32), pct(99)]);
        let zero = Count::new(0u64, 0u64).into();
        t.push(vec![50u64.into(), "b".into(), pct(54), zero]);
        t.notes.push("(note)".into());
        let expect = "TABLE
| jitter/request (ms) | run   | not multiplexed (%) | requests done |
|--------------------:|-------|--------------------:|--------------:|
|        0 (baseline) | a     |                  32 |      99/100   |
|                  50 | b     |                  54 |       0/0     |
(note)
";
        assert_eq!(t.markdown(), expect);
        let json = crate::json::to_string_pretty(&t);
        assert!(json.contains("\"requests done\": {\n        \"k\": 99,\n        \"n\": 100"));
    }

    /// Table II: one line per column, no rule.
    #[test]
    fn transposed_layout() {
        let columns = vec![
            Column::new("Object (O_curr)", 6, Fmt::Fixed(0)),
            Column::new("T(curr)-T(prev) (ms)", 6, Fmt::Fixed(1)),
            Column::new("Success %: one at a time", 6, Fmt::Fixed(0)),
        ];
        let mut t = Table::new("TABLE II", Layout::Transposed(26), columns);
        t.push(vec!["HTML".into(), Cell::mean(&[499.0, 501.0]), pct(90)]);
        let expect = "TABLE II
| Object (O_curr)            |   HTML |
| T(curr)-T(prev) (ms)       |  500.0 |
| Success %: one at a time   |     90 |
";
        assert_eq!(t.markdown(), expect);
    }

    /// The ablations, `defend` and `dos`: rows indented under a `--` line,
    /// with or without names above them; a report's notes follow a blank
    /// line.
    #[test]
    fn indented_layout() {
        let columns = vec![
            Column::new("condition", 12, Fmt::Left),
            Column::new("value", 7, Fmt::Fixed(1)),
            Column::new("unit", 0, Fmt::Paren),
        ];
        let mut bare = Table::new("a", Layout::Indented { header: false }, columns.clone());
        bare.push(vec!["x".into(), pct(1), "m".into()]);
        let mut headed = Table::new("b", Layout::Indented { header: true }, columns);
        headed.push(vec!["y".into(), Cell::Missing, "m".into()]);
        let report = Report {
            head: vec!["HEAD".into()],
            tables: vec![bare, headed],
            notes: vec!["plot".into()],
        };
        let expect = "HEAD
-- a
   x                1.0  (m)
-- b
   condition      value unit
   y                  -  (m)

plot
";
        assert_eq!(report.markdown(), expect);
    }
}
