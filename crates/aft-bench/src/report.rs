//! Plain-text table rendering for experiment output.
//!
//! The `aft-bench` runner prints results as aligned text tables so that a
//! run's stdout can be compared side by side with the paper's figures, and so
//! `bench_output.txt` stays grep-able.

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the number of cells should match the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Convenience for rows built from display values.
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.add_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns true if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, header) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(header.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}  "));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the element at
/// rank `round((n - 1) * q)`, or `0.0` for an empty sample.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Formats a millisecond value the way the paper's figures label them.
pub fn ms(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = Table::new("Demo", &["config", "median (ms)", "p99 (ms)"]);
        table.add_row(vec!["AFT".into(), "3.1".into(), "9.9".into()]);
        table.add_row(vec!["DynamoDB Sequential".into(), "30".into(), "96".into()]);
        let rendered = table.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("DynamoDB Sequential"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        // Every data line is at least as wide as the longest cell in column 0.
        for line in rendered.lines().skip(2) {
            assert!(line.len() >= "DynamoDB Sequential".len());
        }
    }

    #[test]
    fn ms_formatting_scales_precision() {
        assert_eq!(ms(3.72111), "3.72");
        assert_eq!(ms(37.2111), "37.2");
        assert_eq!(ms(372.111), "372");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        // rank round(4 * 0.9) = 4, round(4 * 0.6) = 2
        assert_eq!(percentile(&sorted, 0.9), 10.0);
        assert_eq!(percentile(&sorted, 0.6), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn row_builder_accepts_display_values() {
        let mut table = Table::new("t", &["a", "b"]);
        table.row(&[&1.5f64, &"x"]);
        assert_eq!(table.len(), 1);
        assert!(table.render().contains("1.5"));
    }
}
