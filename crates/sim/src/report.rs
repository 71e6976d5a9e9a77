//! Row sinks for the experiment harness: aligned ASCII tables, CSV and
//! JSONL — all behind one streaming [`Sink`] trait so long campaigns emit
//! rows as trial batches complete instead of buffering whole sweeps.

use std::io::{self, Write};
use std::path::Path;

use crate::scenario::json::json_string;

/// Renders an aligned ASCII table (header row + separator + data rows).
///
/// ```
/// let t = dream_sim::report::format_table(
///     &["V", "SNR (dB)"],
///     &[vec!["0.9".into(), "95.0".into()], vec!["0.5".into(), "12.3".into()]],
/// );
/// assert!(t.contains("0.9"));
/// assert!(t.lines().count() == 4);
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        padded.join("  ")
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Escapes one CSV cell per RFC 4180: cells containing a comma, double
/// quote, CR or LF are wrapped in double quotes with inner quotes doubled;
/// clean cells pass through unchanged (so the harness's numeric output
/// stays byte-stable).
///
/// ```
/// use dream_sim::report::csv_escape;
/// assert_eq!(csv_escape("12.5"), "12.5");
/// assert_eq!(csv_escape("a,b"), "\"a,b\"");
/// assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
/// ```
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// A streaming consumer of result rows.
///
/// The scenario engine calls [`Sink::begin`] once with the column headers,
/// [`Sink::emit`] with each batch of finished rows (one batch per completed
/// grid point, so hour-long campaigns surface progress incrementally), and
/// [`Sink::finish`] once at the end.
pub trait Sink {
    /// Declares the column headers. Called exactly once, before any rows.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn begin(&mut self, headers: &[&str]) -> io::Result<()>;

    /// Consumes one batch of rows.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn emit(&mut self, rows: &[Vec<String>]) -> io::Result<()>;

    /// Flushes any buffered output (the table sink renders here, since
    /// column widths need the full row set).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn finish(&mut self) -> io::Result<()>;
}

/// A sink that drops everything (the engine's default when the caller only
/// wants the typed outcome).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn begin(&mut self, _headers: &[&str]) -> io::Result<()> {
        Ok(())
    }

    fn emit(&mut self, _rows: &[Vec<String>]) -> io::Result<()> {
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams rows as RFC-4180 CSV (header line first, cells escaped via
/// [`csv_escape`]).
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        CsvSink { writer }
    }

    /// Unwraps the writer (e.g. to recover an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> Sink for CsvSink<W> {
    fn begin(&mut self, headers: &[&str]) -> io::Result<()> {
        let cells: Vec<String> = headers.iter().map(|h| csv_escape(h)).collect();
        writeln!(self.writer, "{}", cells.join(","))
    }

    fn emit(&mut self, rows: &[Vec<String>]) -> io::Result<()> {
        for row in rows {
            let cells: Vec<String> = row.iter().map(|c| csv_escape(c)).collect();
            writeln!(self.writer, "{}", cells.join(","))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// True when `cell` is already a syntactically valid JSON number (so the
/// JSONL sink can emit it unquoted without changing its bytes).
fn is_json_number(cell: &str) -> bool {
    let s = cell.strip_prefix('-').unwrap_or(cell);
    let (int_part, rest) = match s.find(['.', 'e', 'E']) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    };
    let int_ok = !int_part.is_empty()
        && int_part.bytes().all(|b| b.is_ascii_digit())
        && (int_part == "0" || !int_part.starts_with('0'));
    if !int_ok {
        return false;
    }
    let mut rest = rest;
    if let Some(frac) = rest.strip_prefix('.') {
        let end = frac.find(['e', 'E']).unwrap_or(frac.len());
        if end == 0 || !frac[..end].bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        rest = &frac[end..];
    }
    match rest.strip_prefix(['e', 'E']) {
        None => rest.is_empty(),
        Some(exp) => {
            let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
            !exp.is_empty() && exp.bytes().all(|b| b.is_ascii_digit())
        }
    }
}

/// Streams rows as JSON Lines: one object per row keyed by the headers,
/// with numeric-looking cells emitted as JSON numbers.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    headers: Vec<String>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            headers: Vec::new(),
        }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl JsonlSink<std::fs::File> {
    /// Opens `path` for appending (creating it if absent) — the
    /// resumable-campaign sink: JSONL carries its keys on every row, so a
    /// re-run continues the artifact instead of truncating the rows a
    /// previous (interrupted) campaign already paid for.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be opened.
    pub fn append(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink::new(file))
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn begin(&mut self, headers: &[&str]) -> io::Result<()> {
        self.headers = headers.iter().map(|h| (*h).to_string()).collect();
        Ok(())
    }

    fn emit(&mut self, rows: &[Vec<String>]) -> io::Result<()> {
        for row in rows {
            let fields: Vec<String> = self
                .headers
                .iter()
                .zip(row)
                .map(|(h, cell)| {
                    let value = if is_json_number(cell) {
                        cell.clone()
                    } else {
                        json_string(cell)
                    };
                    format!("{}: {value}", json_string(h))
                })
                .collect();
            writeln!(self.writer, "{{{}}}", fields.join(", "))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Buffers rows and renders one aligned ASCII table on
/// [`Sink::finish`] (alignment needs the full column widths).
#[derive(Debug)]
pub struct TableSink<W: Write> {
    writer: W,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl<W: Write> TableSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        TableSink {
            writer,
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Unwraps the writer (the rendered table, after
    /// [`Sink::finish`]).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> Sink for TableSink<W> {
    fn begin(&mut self, headers: &[&str]) -> io::Result<()> {
        self.headers = headers.iter().map(|h| (*h).to_string()).collect();
        Ok(())
    }

    fn emit(&mut self, rows: &[Vec<String>]) -> io::Result<()> {
        self.rows.extend(rows.iter().cloned());
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        write!(self.writer, "{}", format_table(&headers, &self.rows))?;
        self.writer.flush()
    }
}

/// Writes rows as CSV in one call (headers + rows through [`CsvSink`], so
/// cells containing commas, quotes or newlines are escaped rather than
/// silently corrupting the row structure).
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut sink = CsvSink::new(std::fs::File::create(path)?);
    sink.begin(headers)?;
    sink.emit(rows)?;
    sink.finish()
}

/// Formats a fraction as a percentage with one decimal (`0.345` → `34.5%`).
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats an SNR value, rendering the harness cap as a `>=` bound.
pub fn snr(db: f64) -> String {
    if db >= crate::campaign::SNR_CAP_DB {
        format!(">={:.0}", crate::campaign::SNR_CAP_DB)
    } else {
        format!("{db:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_round_trips() {
        let dir = std::env::temp_dir().join("dream_sim_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "x,y\n1,2\n3,4\n");
    }

    #[test]
    fn csv_cells_with_commas_are_quoted_not_corrupted() {
        let dir = std::env::temp_dir().join("dream_sim_csv_escape_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["name", "note"],
            &[vec!["a,b".into(), "he said \"hi\"\nbye".into()]],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "name,note\n\"a,b\",\"he said \"\"hi\"\"\nbye\"\n");
        // Quoted-field parse: the first data row still has exactly 2 cells.
        assert_eq!(body.lines().count(), 3); // header + 2 physical lines of 1 logical row
    }

    #[test]
    fn csv_escape_passes_clean_cells_through() {
        assert_eq!(csv_escape("DWT"), "DWT");
        assert_eq!(csv_escape("-12.345"), "-12.345");
        assert_eq!(csv_escape("ECC SEC/DED"), "ECC SEC/DED");
        assert_eq!(csv_escape("a\rb"), "\"a\rb\"");
    }

    #[test]
    fn csv_sink_streams_batches() {
        let mut sink = CsvSink::new(Vec::new());
        sink.begin(&["a", "b"]).unwrap();
        sink.emit(&[vec!["1".into(), "2".into()]]).unwrap();
        sink.emit(&[vec!["3".into(), "4".into()]]).unwrap();
        sink.finish().unwrap();
        assert_eq!(
            String::from_utf8(sink.into_inner()).unwrap(),
            "a,b\n1,2\n3,4\n"
        );
    }

    #[test]
    fn jsonl_sink_types_numbers_and_escapes_strings() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.begin(&["app", "snr_db", "bit"]).unwrap();
        sink.emit(&[
            vec!["DWT".into(), "68.612".into(), "0".into()],
            vec!["say \"hi\"".into(), "-7.263".into(), "15".into()],
        ])
        .unwrap();
        sink.finish().unwrap();
        let body = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"app\": \"DWT\", \"snr_db\": 68.612, \"bit\": 0}"
        );
        assert_eq!(
            lines[1],
            "{\"app\": \"say \\\"hi\\\"\", \"snr_db\": -7.263, \"bit\": 15}"
        );
    }

    #[test]
    fn json_number_detection_is_strict() {
        for ok in ["0", "-1", "12.5", "-0.003", "1e9", "2.5E-3", "0.50"] {
            assert!(is_json_number(ok), "{ok}");
        }
        for bad in ["", "-", ".5", "1.", "007", "0x1f", "1e", "NaN", "inf", "1 "] {
            assert!(!is_json_number(bad), "{bad}");
        }
    }

    #[test]
    fn table_sink_renders_on_finish() {
        let mut sink = TableSink::new(Vec::new());
        sink.begin(&["V", "snr"]).unwrap();
        sink.emit(&[vec!["0.9".into(), "95.0".into()]]).unwrap();
        sink.emit(&[vec!["0.55".into(), "3.2".into()]]).unwrap();
        sink.finish().unwrap();
        let body = String::from_utf8(sink.writer).unwrap();
        assert_eq!(
            body,
            format_table(
                &["V", "snr"],
                &[
                    vec!["0.9".into(), "95.0".into()],
                    vec!["0.55".into(), "3.2".into()]
                ],
            )
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.345), "34.5%");
        assert_eq!(pct(-0.5), "-50.0%");
    }

    #[test]
    fn snr_caps() {
        assert_eq!(snr(42.0), "42.0");
        assert_eq!(snr(100.0), ">=100");
    }
}
