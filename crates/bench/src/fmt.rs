//! Minimal fixed-width table rendering for the report binaries.
//!
//! The figure reports print their tables straight from the artifact's
//! row objects (`table` over a list of columns, each a header and a cell
//! function of the row), so the printed text and `BENCH_<figure>.json`
//! cannot drift apart; the characterization binaries, which write no
//! artifact, hand [`render`] their cells.

use popk_core::Json;

/// Render a table: a header row plus data rows, columns padded to the
/// widest cell, separated by two spaces. Numeric-looking cells are
/// right-aligned.
pub fn render(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let numeric: Vec<bool> = (0..ncols)
        .map(|c| {
            rows.iter()
                .all(|r| r[c].is_empty() || r[c].parse::<f64>().is_ok() || r[c].ends_with('%'))
                && !rows.is_empty()
        })
        .collect();

    let mut out = String::new();
    let emit = |out: &mut String, row: &[String], bold_rule: bool| {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            if numeric[c] {
                out.push_str(&format!("{cell:>width$}", width = widths[c]));
            } else {
                out.push_str(&format!("{cell:<width$}", width = widths[c]));
            }
        }
        out.push('\n');
        if bold_rule {
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    };
    emit(&mut out, header, true);
    for row in rows {
        emit(&mut out, row, false);
    }
    out
}

/// One printed column of a row-object table: its header and the cell it
/// shows for each row.
pub(crate) struct Column<'a> {
    header: String,
    cell: Box<dyn Fn(&Json) -> String + 'a>,
}

/// A column titled `header` whose cell for a row object is `cell(row)`.
/// Derived cells (deltas, ratios, pivots) compute from stored fields.
pub(crate) fn col<'a>(
    header: impl Into<String>,
    cell: impl Fn(&Json) -> String + 'a,
) -> Column<'a> {
    Column {
        header: header.into(),
        cell: Box::new(cell),
    }
}

/// Render row objects as a table through [`render`], one line per row.
pub(crate) fn table<'r>(rows: impl IntoIterator<Item = &'r Json>, cols: &[Column]) -> String {
    let header: Vec<String> = cols.iter().map(|c| c.header.clone()).collect();
    let cells: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| cols.iter().map(|c| (c.cell)(r)).collect())
        .collect();
    render(&header, &cells)
}

/// A number: `null` and absent values read as NaN. The journal
/// serializes a non-finite float as `null`, so a replayed value prints
/// exactly like the fresh one.
pub(crate) fn as_num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// A numeric field of a row object (see [`as_num`]).
pub(crate) fn num(row: &Json, key: &str) -> f64 {
    as_num(row.get(key))
}

/// Element `i` of a row object's numeric array field (see [`as_num`]).
pub(crate) fn num_at(row: &Json, key: &str, i: usize) -> f64 {
    as_num(array(row, key).get(i))
}

/// An array field of an object (empty when absent).
pub(crate) fn array<'j>(obj: &'j Json, key: &str) -> &'j [Json] {
    obj.get(key).and_then(Json::as_array).unwrap_or_default()
}

/// A string or integer field of a row object as printed text.
pub(crate) fn field(row: &Json, key: &str) -> String {
    match row.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v.to_string(),
        None => String::new(),
    }
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a fraction as a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Format a fraction as a signed percentage with 1 decimal.
pub(crate) fn signed_pct(v: f64) -> String {
    format!("{:+.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned() {
        let t = render(
            &strings(&["name", "ipc"]),
            &[strings(&["bzip", "1.234"]), strings(&["li", "0.9"])],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        assert!(lines[2].contains("1.234"));
    }

    #[test]
    fn helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(signed_pct(0.1234), "+12.3%");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let _ = render(&strings(&["a", "b"]), &[strings(&["only one"])]);
    }

    #[test]
    fn table_renders_row_objects_and_null_as_nan() {
        let mut fresh = Json::object();
        fresh.set("name", "li".into());
        fresh.set("n", Json::from(7u64));
        fresh.set("ipc", Json::from(f64::NAN));
        // The journal's round trip turns the non-finite float into null.
        let replayed = Json::parse(&fresh.to_string()).expect("valid json");
        assert_eq!(replayed.get("ipc"), Some(&Json::Null));
        let cols = [
            col("benchmark", |r| field(r, "name")),
            col("n", |r| field(r, "n")),
            col("IPC", |r| f3(num(r, "ipc"))),
        ];
        let t = table([&fresh], &cols);
        assert_eq!(t, table([&replayed], &cols));
        assert!(t
            .lines()
            .nth(2)
            .is_some_and(|l| l.contains("li") && l.contains('7') && l.ends_with("NaN")));
    }
}
