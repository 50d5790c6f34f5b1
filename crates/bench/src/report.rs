//! Plain-text tables and JSON result dumps.
//!
//! Every experiment binary prints a human-readable table *and* writes the
//! same data as JSON under `results/`, so EXPERIMENTS.md numbers are
//! regenerable and diffable.

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float compactly (3 significant-ish digits, scientific for
/// extremes).
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e7 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// Rounds a microsecond latency to nanosecond precision (three decimals),
/// so serialized timings don't carry binary-float noise like
/// `914232.516000000003` into committed JSON — a nanosecond is already an
/// order of magnitude below `Instant` jitter on this path.
pub fn round_us(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The upper median of `samples`, which it sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Resolves the `results/` directory (repo root when run via cargo,
/// current dir otherwise) and ensures it exists.
pub fn results_dir() -> PathBuf {
    let candidates = [
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
        PathBuf::from("results"),
    ];
    for c in &candidates {
        if c.parent().is_some_and(Path::exists) {
            let _ = fs::create_dir_all(c);
            if c.exists() {
                return c.clone();
            }
        }
    }
    PathBuf::from(".")
}

/// Writes an experiment result as pretty JSON under `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    write_json_to(results_dir(), name, value)
}

/// Writes a benchmark result as pretty JSON at the **repo root**
/// (`<name>.json`), for committed perf-trajectory files like
/// `BENCH_estimator.json` that live next to `EXPERIMENTS.md` rather than
/// under `results/`.
pub fn write_json_root<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if root.exists() {
        root
    } else {
        PathBuf::from(".")
    };
    write_json_to(dir, name, value)
}

fn write_json_to<T: Serialize>(dir: PathBuf, name: &str, value: &T) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["pool", "noSit", "GS-Diff"],
            &[
                vec!["J0".into(), "62466".into(), "62466".into()],
                vec!["J7".into(), "62466".into(), "1679".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].ends_with("1679"));
    }

    #[test]
    fn numbers_format_compactly() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.123456), "0.123");
        assert_eq!(fmt_num(1234.5), "1234");
        assert_eq!(fmt_num(1.5e9), "1.50e9");
        assert_eq!(fmt_num(1e-6), "1.00e-6");
    }

    #[test]
    fn microseconds_round_to_nanosecond_precision() {
        assert_eq!(round_us(914_232.516_f64.next_up()), 914_232.516);
        assert_eq!(round_us(0.000_4), 0.0);
        assert_eq!(round_us(0.000_6), 0.001);
        assert_eq!(round_us(12.0), 12.0);
        // Round-tripping through JSON keeps the short decimal form.
        assert_eq!(
            serde_json::to_string(&round_us(914_232.516_f64.next_up())).unwrap(),
            "914232.516"
        );
    }

    #[test]
    fn json_round_trips() {
        #[derive(Serialize)]
        struct Demo {
            x: u32,
        }
        let path = write_json("test_report_demo", &Demo { x: 7 }).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 7"));
        let _ = std::fs::remove_file(path);
    }
}
