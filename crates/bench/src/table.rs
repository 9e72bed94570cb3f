//! Minimal fixed-width table printer for the report sections.

/// One column of [`Table::of`]: its header, and the cell it formats for
/// a row.
pub(crate) type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// A simple text table with a header row.
///
/// Every table of the report sections in `repro::SECTIONS` is one of
/// these.
///
/// # Examples
///
/// ```
/// use cimtpu_bench::repro::SECTIONS;
/// use cimtpu_units::Stdout;
/// let (name, render) = SECTIONS[2];
/// assert_eq!(name, "table1_parameters");
/// render(&mut Stdout::lock())?;
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(header: Vec<&str>) -> Self {
        Table {
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// A table of `rows` with one row per item and one [`Column`] per
    /// `(header, cell)` pair.
    pub(crate) fn of<R>(rows: &[R], columns: &[Column<'_, R>]) -> Self {
        let mut t = Table::new(columns.iter().map(|&(header, _)| header).collect());
        for r in rows {
            t.row(columns.iter().map(|(_, cell)| cell(r)).collect());
        }
        t
    }

    /// Appends one row (cells beyond the header width are dropped).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .take(widths.len())
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i] + 2))
                .collect::<String>()
                .trim_end()
                .to_owned()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(
                widths
                    .iter()
                    .map(|w| w + 2)
                    .sum::<usize>()
                    .saturating_sub(2),
            ),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn extra_cells_are_dropped() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "spurious".into()]);
        assert!(!t.render().contains("spurious"));
    }
}
