//! Table rendering and JSON row dumps for the experiment harness.

use std::fs;
use std::path::PathBuf;

/// A printable experiment table that also persists its rows as JSON under
/// `experiments_out/<id>.json` (relative to the working directory, never
/// to where the binary was built), which is the copy CI validates.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    id: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table for exhibit `id` (e.g. `"fig12"`).
    pub(crate) fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells, one per column).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "cell/column mismatch");
        self.rows.push(cells);
    }

    /// Prints the table to stdout and writes `experiments_out/<id>.json`.
    pub(crate) fn finish(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n=== {} — {} ===", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        println!("{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
        self.write_json();
    }

    fn write_json(&self) {
        let dir = PathBuf::from("experiments_out");
        if fs::create_dir_all(&dir).is_err() {
            return; // reporting must never fail the experiment
        }
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let obj: serde_json::Map<String, serde_json::Value> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| (c.clone(), serde_json::Value::String(v.clone())))
                    .collect();
                serde_json::Value::Object(obj)
            })
            .collect();
        let doc = serde_json::json!({
            "id": self.id,
            "title": self.title,
            "rows": rows,
        });
        let pretty = serde_json::to_string_pretty(&doc).expect("static structure serializes");
        let _ = fs::write(dir.join(format!("{}.json", self.id)), &pretty);
    }
}

/// Formats bytes as MiB with one decimal.
pub(crate) fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats seconds with three decimals.
pub(crate) fn secs(s: f64) -> String {
    format!("{s:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_tracked() {
        let mut t = Table::new("t", "test", &["a", "b"]);
        assert!(t.rows.is_empty());
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cell/column mismatch")]
    fn wrong_arity_rejected() {
        let mut t = Table::new("t", "test", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(mib(1 << 20), "1.0");
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(secs(1.23456), "1.235");
    }
}
