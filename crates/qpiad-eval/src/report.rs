//! Typed experiment reports.
//!
//! Every experiment returns a [`Report`]: named series of `(x, y)` points
//! plus free-form notes. Reports render as aligned text tables (what the
//! `exp` binary prints and `EXPERIMENTS.md` embeds) and serialize to
//! JSON for downstream tooling.

use std::fmt::Write as _;

use serde::Serialize;

/// A single data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Point {
    /// X coordinate (recall, k, threshold, ... per the report's label).
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Shorthand constructor.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }
}

/// A named series of points.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend name, e.g. `"QPIAD"` or `"alpha=0.1"`.
    pub name: String,
    /// The data points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Builds a series from `(x, y)` pairs.
    pub fn new(name: impl Into<String>, points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points: points.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
        }
    }
}

/// An experiment report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Stable identifier, e.g. `"figure3"`.
    pub id: String,
    /// Human title, e.g. the paper caption.
    pub title: String,
    /// Meaning of x.
    pub x_label: String,
    /// Meaning of y.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form observations (e.g. paper-vs-measured shape checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Looks up a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the report as an aligned text table: one x column, one
    /// column per series (y values matched by x where x grids align, or
    /// per-series blocks otherwise).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} [{}] ==", self.title, self.id);

        if self.shares_x_grid() {
            let width = self
                .series
                .iter()
                .map(|s| s.name.len())
                .chain([self.x_label.len(), 10])
                .max()
                .unwrap_or(10)
                + 2;
            let _ = write!(out, "{:>width$}", self.x_label);
            for s in &self.series {
                let _ = write!(out, "{:>width$}", s.name);
            }
            out.push('\n');
            let rows = self.series.first().map(|s| s.points.len()).unwrap_or(0);
            for i in 0..rows {
                let _ = write!(out, "{:>width$.4}", self.series[0].points[i].x);
                for s in &self.series {
                    let _ = write!(out, "{:>width$.4}", s.points[i].y);
                }
                out.push('\n');
            }
        } else {
            for s in &self.series {
                let _ = writeln!(out, "-- {} --", s.name);
                let _ = writeln!(out, "{:>12} {:>12}", self.x_label, self.y_label);
                for p in &s.points {
                    let _ = writeln!(out, "{:>12.4} {:>12.4}", p.x, p.y);
                }
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Serializes the report to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Renders each series as a one-line ASCII sparkline over its y values
    /// (scaled to the report's global y range) — a quick visual check of
    /// curve shapes in terminal output.
    pub fn render_sparklines(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.y))
            .collect();
        let (min, max) = ys
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), y| {
                (lo.min(*y), hi.max(*y))
            });
        let span = (max - min).max(1e-12);
        let width = self.series.iter().map(|s| s.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for s in &self.series {
            let line: String = s
                .points
                .iter()
                .map(|p| {
                    let level = ((p.y - min) / span * 7.0).round() as usize;
                    BARS[level.min(7)]
                })
                .collect();
            let _ = writeln!(out, "{:>width$} {line}", s.name);
        }
        if !ys.is_empty() {
            let _ = writeln!(out, "{:>width$} y: {min:.3}..{max:.3}", "");
        }
        out
    }

    fn shares_x_grid(&self) -> bool {
        let Some(first) = self.series.first() else {
            return false;
        };
        self.series.iter().all(|s| {
            s.points.len() == first.points.len()
                && s.points
                    .iter()
                    .zip(&first.points)
                    .all(|(a, b)| (a.x - b.x).abs() < 1e-9)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new("figX", "A test figure", "recall", "precision");
        r.push_series(Series::new("QPIAD", vec![(0.1, 0.9), (0.2, 0.8)]));
        r.push_series(Series::new("AllReturned", vec![(0.1, 0.3), (0.2, 0.3)]));
        r.note("QPIAD dominates");
        r
    }

    #[test]
    fn renders_shared_grid_as_one_table() {
        let text = sample_report().render_text();
        assert!(text.contains("A test figure"), "{text}");
        assert!(text.contains("QPIAD"));
        assert!(text.contains("AllReturned"));
        assert!(text.contains("0.9000"));
        assert!(text.contains("note: QPIAD dominates"));
        // Shared grid: a single header line holds both series names.
        let header = text.lines().nth(1).unwrap();
        assert!(header.contains("QPIAD") && header.contains("AllReturned"));
    }

    #[test]
    fn renders_blocks_for_mismatched_grids() {
        let mut r = sample_report();
        r.push_series(Series::new("odd", vec![(0.7, 0.1)]));
        let text = r.render_text();
        assert!(text.contains("-- odd --"), "{text}");
    }

    #[test]
    fn json_round_trip_shape() {
        let json = sample_report().to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["id"], "figX");
        assert_eq!(parsed["series"][0]["points"][0]["y"], 0.9);
    }

    #[test]
    fn sparklines_scale_to_global_range() {
        let spark = sample_report().render_sparklines();
        let lines: Vec<&str> = spark.lines().collect();
        assert_eq!(lines.len(), 3); // two series + range footer
        assert!(lines[0].contains('█'), "{spark}"); // 0.9 = global max
        assert!(lines[1].contains('▁'), "{spark}"); // 0.3 = global min
        assert!(lines[2].contains("0.300..0.900"), "{spark}");
        // Empty report: no panic, just empty output.
        let empty = Report::new("x", "t", "x", "y");
        assert!(empty.render_sparklines().is_empty());
    }

    #[test]
    fn series_lookup() {
        let r = sample_report();
        assert!(r.series_named("QPIAD").is_some());
        assert!(r.series_named("nope").is_none());
    }
}
