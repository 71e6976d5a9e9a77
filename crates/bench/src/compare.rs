//! Field-level diffing of two campaign row sets — the engine of
//! `dream compare`.
//!
//! Both CSV artifacts (header line + comma-separated rows, as written by
//! [`dream_sim::report::CsvSink`]) and JSONL artifacts (one flat object
//! per line, as written by [`dream_sim::report::JsonlSink`] and stored by
//! the campaign service) parse into the same [`RowSet`] shape, so any
//! pairing of the two formats compares cell for cell. Numeric cells
//! compare by value (a JSONL `35.0` equals a CSV `35.000`); everything
//! else compares as text.

use dream_sim::scenario::json::Json;

/// A parsed row artifact: ordered column names plus rows of cell strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowSet {
    /// Column names, in artifact order.
    pub columns: Vec<String>,
    /// Row cells, in artifact order, one entry per column.
    pub rows: Vec<Vec<String>>,
}

/// Parses a row artifact, auto-detecting CSV vs JSONL from the first
/// non-empty line.
///
/// # Errors
///
/// Returns a readable message for empty input, malformed JSONL lines,
/// non-object JSONL lines, or CSV rows whose cell count does not match
/// the header.
pub fn parse_rows(text: &str) -> Result<RowSet, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
    let first = lines.peek().ok_or("artifact is empty")?;
    if first.trim_start().starts_with('{') {
        parse_jsonl(lines)
    } else {
        parse_csv(lines)
    }
}

/// Renders a JSON scalar the way the diff compares it: strings verbatim,
/// numbers through `f64` display (so equal values in different notations
/// render identically on both sides).
fn render(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        Json::Num(n) => n.to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".into(),
        composite => format!("{composite:?}"),
    }
}

fn parse_jsonl<'a>(lines: impl Iterator<Item = &'a str>) -> Result<RowSet, String> {
    let mut columns: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let Json::Obj(fields) = obj else {
            return Err(format!("line {}: not a JSON object", i + 1));
        };
        if columns.is_empty() {
            columns = fields.iter().map(|(k, _)| k.clone()).collect();
        } else if fields.len() != columns.len()
            || fields.iter().zip(&columns).any(|((k, _), c)| k != c)
        {
            return Err(format!(
                "line {}: fields [{}] do not match the first line's [{}]",
                i + 1,
                fields
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
                columns.join(", ")
            ));
        }
        rows.push(fields.iter().map(|(_, v)| render(v)).collect());
    }
    Ok(RowSet { columns, rows })
}

fn parse_csv<'a>(mut lines: impl Iterator<Item = &'a str>) -> Result<RowSet, String> {
    let header = lines.next().ok_or("artifact is empty")?;
    let columns: Vec<String> = header.split(',').map(str::to_string).collect();
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let cells: Vec<String> = line.split(',').map(str::to_string).collect();
        if cells.len() != columns.len() {
            return Err(format!(
                "row {}: {} cells but {} header columns",
                i + 1,
                cells.len(),
                columns.len()
            ));
        }
        rows.push(cells);
    }
    Ok(RowSet { columns, rows })
}

/// Whether two cells agree: textually, or — when both parse — as `f64`
/// values (bridges CSV's fixed-point formatting and JSONL's shortest
/// float notation).
fn cells_equal(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// Compares two row sets and returns one human-readable message per
/// difference: column-layout mismatches, row-count mismatches, and
/// cell-level deltas (with the numeric difference where both sides
/// parse). An empty result means the sets match.
pub fn diff(a: &RowSet, b: &RowSet) -> Vec<String> {
    let mut out = Vec::new();
    if a.columns != b.columns {
        out.push(format!(
            "column mismatch: [{}] vs [{}]",
            a.columns.join(", "),
            b.columns.join(", ")
        ));
    }
    if a.rows.len() != b.rows.len() {
        out.push(format!(
            "row count mismatch: {} vs {}",
            a.rows.len(),
            b.rows.len()
        ));
    }
    let columns = a.columns.len().min(b.columns.len());
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        for (j, (ca, cb)) in ra.iter().zip(rb).take(columns).enumerate() {
            if !cells_equal(ca, cb) {
                let delta = match (ca.parse::<f64>(), cb.parse::<f64>()) {
                    (Ok(x), Ok(y)) => format!(" (delta {:+e})", y - x),
                    _ => String::new(),
                };
                out.push(format!(
                    "row {i}, {}: {ca:?} vs {cb:?}{delta}",
                    a.columns.get(j).map_or("?", |c| c.as_str())
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "app,bit,snr_db\ndwt,0,35.000\ndwt,1,12.500\n";

    #[test]
    fn csv_parses_into_columns_and_rows() {
        let set = parse_rows(CSV).unwrap();
        assert_eq!(set.columns, vec!["app", "bit", "snr_db"]);
        assert_eq!(set.rows.len(), 2);
        assert_eq!(set.rows[1], vec!["dwt", "1", "12.500"]);
    }

    #[test]
    fn jsonl_parses_and_matches_its_csv_twin() {
        let jsonl = "{\"app\":\"dwt\",\"bit\":0,\"snr_db\":35.0}\n{\"app\":\"dwt\",\"bit\":1,\"snr_db\":12.5}\n";
        let a = parse_rows(CSV).unwrap();
        let b = parse_rows(jsonl).unwrap();
        assert_eq!(diff(&a, &b), Vec::<String>::new());
    }

    #[test]
    fn cell_deltas_are_reported_per_field() {
        let a = parse_rows("app,snr_db\ndwt,35.000\n").unwrap();
        let b = parse_rows("app,snr_db\ndwt,34.000\n").unwrap();
        let diffs = diff(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("snr_db"), "{diffs:?}");
        assert!(diffs[0].contains("delta"), "{diffs:?}");
    }

    #[test]
    fn layout_mismatches_are_reported() {
        let a = parse_rows("app,snr_db\ndwt,35.000\n").unwrap();
        let b = parse_rows("app,bit\ndwt,3\ndwt,4\n").unwrap();
        let diffs = diff(&a, &b);
        assert!(diffs.iter().any(|d| d.contains("column mismatch")));
        assert!(diffs.iter().any(|d| d.contains("row count mismatch")));
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(parse_rows("").is_err());
        assert!(parse_rows("{not json}\n").is_err());
        assert!(parse_rows("a,b\n1,2,3\n").is_err());
        assert!(parse_rows("{\"a\":1}\n{\"b\":2}\n").is_err());
    }

    mod parse_props {
        use super::super::*;
        use proptest::prelude::*;

        /// Artifact-shaped text: arbitrary bytes (lossily decoded), or a
        /// JSONL or CSV artifact with bytes spliced into it.
        fn artifact() -> impl Strategy<Value = String> {
            (
                0u8..3,
                prop::collection::vec(any::<u8>(), 0..200),
                any::<usize>(),
            )
                .prop_map(|(shape, noise, at)| {
                    let mut raw = match shape {
                        0 => Vec::new(),
                        1 => {
                            b"{\"app\":\"dwt\",\"snr_db\":35.0}\n{\"app\":\"cs\",\"snr_db\":1e3}\n"
                                .to_vec()
                        }
                        _ => b"app,bit,snr_db\ndwt,0,35.000\n".to_vec(),
                    };
                    let at = at % (raw.len() + 1);
                    raw.splice(at..at, noise);
                    String::from_utf8_lossy(&raw).into_owned()
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// Arbitrary text never panics `parse_rows`. It is an error,
            /// or a rectangular row set: every row has one cell per
            /// column, and a JSONL-looking artifact (first line opening
            /// with `{`) parsed every line as an object.
            #[test]
            fn arbitrary_text_never_panics_parse_rows(text in artifact()) {
                if let Ok(set) = parse_rows(&text) {
                    prop_assert!(!set.columns.is_empty() || set.rows.is_empty(), "{:?}", set);
                    for row in &set.rows {
                        prop_assert_eq!(row.len(), set.columns.len(), "{:?}", set);
                    }
                    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
                    let jsonl = text
                        .lines()
                        .find(|l| !l.trim().is_empty())
                        .is_some_and(|l| l.trim_start().starts_with('{'));
                    let want = if jsonl { lines } else { lines - 1 };
                    prop_assert_eq!(set.rows.len(), want, "{:?}", text);
                }
            }
        }
    }
}
