//! ASCII table rendering for the benchmark harness.
//!
//! The paper's tables are reproduced as plain-text tables printed by the
//! `crates/bench/src/bin` harnesses; [`Table`] handles alignment and
//! separators so every harness prints in the same style.

use std::fmt;

/// A simple text table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers; the first column is
    /// left-aligned (text), the others right-aligned (numbers).
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            title: None,
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row; panics when the cell count differs from the header
    /// count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        if let Some(title) = &self.title {
            writeln!(f, "{title}")?;
        }
        writeln!(f, "{sep}")?;
        write!(f, "|")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:^w$} |", w = *w)?;
        }
        writeln!(f)?;
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            write!(f, "|")?;
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i == 0 {
                    write!(f, " {cell:<w$} |", w = *w)?;
                } else {
                    write!(f, " {cell:>w$} |", w = *w)?;
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "{sep}")
    }
}

/// Formats a float with `prec` decimals, trimming `-0.0000` to `0.0000`.
pub fn fmt_f(x: f64, prec: usize) -> String {
    let s = format!("{x:.prec$}");
    if s.starts_with('-') && s[1..].chars().all(|c| c == '0' || c == '.') {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_grid() {
        let mut t = Table::new(["Type", "2000", "2006"]).with_title("Power (W)");
        t.row(["Vol", "186", "225"]);
        t.row(["High", "5534", "8163"]);
        let out = t.to_string();
        assert!(out.contains("Power (W)"));
        assert!(out.contains("| Vol "));
        assert!(out.contains(" 8163 |"));
        // Every data line has the same width.
        let lines: Vec<&str> = out.lines().skip(1).collect();
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "ragged table:\n{out}");
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn fmt_f_handles_negative_zero() {
        assert_eq!(fmt_f(-0.000001, 4), "0.0000");
        assert_eq!(fmt_f(-1.5, 2), "-1.50");
        assert_eq!(fmt_f(0.6490, 4), "0.6490");
    }
}
