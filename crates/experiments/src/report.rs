//! Fixed-width table printing and CSV output.

use std::fs;
use std::path::{Path, PathBuf};

/// Prints a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let padded = cells.zip(&widths).map(|(c, w)| format!("{c:<w$}  "));
        println!("{}", padded.collect::<String>().trim_end());
    };
    line(&mut headers.iter().copied());
    let rule = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(rule));
    for row in rows {
        line(&mut row.iter().map(String::as_str));
    }
}

/// Writes rows as a CSV file under `results/` (in the current directory,
/// created on demand), returning the path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let _ = fs::create_dir_all("results");
    let path = Path::new("results").join(name);
    let mut out = headers.join(",") + "\n";
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write results csv");
    println!("[written] {}", path.display());
    path
}

/// Prints `rows` as a table and writes them to `results/<csv>`. Each column
/// is declared once, as a `(printed header, CSV column)` pair, so the two
/// views cannot drift apart.
pub fn publish(title: &str, csv: &str, columns: &[(&str, &str)], rows: &[Vec<String>]) -> PathBuf {
    let (printed, named): (Vec<&str>, Vec<&str>) = columns.iter().copied().unzip();
    print_table(title, &printed, rows);
    write_csv(csv, &named, rows)
}

/// Formats a float with fixed precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a byte count with a binary-unit suffix.
pub fn fmt_bytes(v: f64) -> String {
    if v >= (1 << 20) as f64 {
        format!("{:.2} MiB", v / (1 << 20) as f64)
    } else if v >= 1024.0 {
        format!("{:.2} KiB", v / 1024.0)
    } else {
        format!("{v:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let path = write_csv(
            "test_report.csv",
            &["a", "b"],
            &[vec!["x,y".into(), "he said \"hi\"".into()]],
        );
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"x,y\""));
        assert!(content.contains("\"he said \"\"hi\"\"\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2048.0), "2.00 KiB");
        assert_eq!(fmt_bytes((3 << 20) as f64), "3.00 MiB");
    }
}
