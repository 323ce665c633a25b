//! Minimal fixed-width table printing for the experiment scenarios.

/// Formats a speedup factor as a signed percentage (`1.095` → `"+9.5%"`).
pub fn fmt_pct(factor: f64) -> String {
    format!("{:+.1}%", (factor - 1.0) * 100.0)
}

/// Renders a header row and aligned data rows into `out` (one trailing
/// newline per row). Scenario renderers write here so the engine can
/// compare, capture, and route output deterministically.
pub fn write_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:w$}  ", c, w = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a header row and aligned data rows to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    write_table(&mut out, headers, rows);
    print!("{out}");
}
