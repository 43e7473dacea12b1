//! Report formatting: distribution summaries (the textual equivalent of
//! the paper's violin plots), aligned tables, and report files.

use crate::csv::CsvSink;
use itpx_types::stats::geomean_speedup;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Five-number summary of a per-workload metric distribution — the text
/// rendering of one violin in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Geometric-mean speedup (for improvement metrics) — the black dot.
    pub geomean: f64,
}

impl Distribution {
    /// Summarizes a set of per-workload values (percent improvements use
    /// [`geomean_speedup`] over the fractional values).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "empty distribution");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let q = |p: f64| -> f64 {
            let idx = p * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
            }
        };
        let fractions: Vec<f64> = values.iter().map(|x| x / 100.0).collect();
        Self {
            min: v[0],
            p25: q(0.25),
            median: q(0.5),
            p75: q(0.75),
            max: *v.last().expect("non-empty"),
            geomean: geomean_speedup(&fractions) * 100.0,
        }
    }
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:+7.2}  p25 {:+7.2}  med {:+7.2}  p75 {:+7.2}  max {:+7.2}  | geomean {:+7.2}",
            self.min, self.p25, self.median, self.p75, self.max, self.geomean
        )
    }
}

/// A text report that accumulates lines and can be printed and saved,
/// with any CSV exports that go next to it.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    body: String,
    csvs: Vec<CsvSink>,
}

impl Report {
    /// Starts a report for one experiment.
    pub fn new(title: impl Into<String>) -> Self {
        let title = title.into();
        let mut body = String::new();
        let _ = writeln!(body, "# {title}");
        Self {
            title,
            body,
            csvs: Vec::new(),
        }
    }

    /// Appends one line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.body.push_str(s.as_ref());
        self.body.push('\n');
    }

    /// Appends a formatted key/value row.
    pub fn row(&mut self, key: impl AsRef<str>, value: impl std::fmt::Display) {
        let _ = writeln!(self.body, "{:<28} {value}", key.as_ref());
    }

    /// The accumulated text.
    pub fn text(&self) -> &str {
        &self.body
    }

    /// Attaches a CSV export for [`Report::finish`] to write; building a
    /// report writes no files.
    pub fn attach_csv(&mut self, csv: CsvSink) {
        self.csvs.push(csv);
    }

    /// The attached CSV exports, in attachment order.
    pub fn csvs(&self) -> &[CsvSink] {
        &self.csvs
    }

    /// Prints to stdout and writes `target/experiments/<slug>.txt` plus
    /// every attached CSV, returning the text report's path (best effort:
    /// IO errors are reported, not fatal).
    pub fn finish(&self) -> Option<PathBuf> {
        println!("{}", self.body);
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let dir = PathBuf::from("target/experiments");
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }
        for csv in &self.csvs {
            if let Err(e) = csv.write_to(&dir) {
                eprintln!("could not write a CSV export to {}: {e}", dir.display());
                return None;
            }
        }
        let path = dir.join(format!("{slug}.txt"));
        match std::fs::write(&path, &self.body) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("could not write report {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_five_numbers() {
        let d = Distribution::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.median, 3.0);
        assert_eq!(d.max, 5.0);
        assert_eq!(d.p25, 2.0);
        assert_eq!(d.p75, 4.0);
    }

    #[test]
    fn geomean_matches_library() {
        let d = Distribution::of(&[10.0, 10.0]);
        assert!((d.geomean - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_distribution_panics() {
        let _ = Distribution::of(&[]);
    }

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("Fig X");
        r.row("alpha", 1.5);
        r.line("done");
        assert!(r.text().contains("# Fig X"));
        assert!(r.text().contains("alpha"));
        assert!(r.text().contains("done"));
    }
}
