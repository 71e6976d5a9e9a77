//! Minimal JSON support for scenario specs.
//!
//! The workspace is intentionally dependency-free (see `vendor/README.md`),
//! so scenario serialization rides on this ~200-line value type instead of
//! serde. It covers exactly what specs need: objects, arrays, strings,
//! finite numbers, booleans and null — with stable, diff-friendly
//! pretty-printing so spec files and `dream run --out` artifacts are
//! reproducible byte for byte.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object — insertion-ordered (scenario serialization relies on a
    /// stable field order for reproducible spec files).
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if losslessly
    /// representable.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The numeric payload as a `u64`, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical on-disk spec format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Prints on one line (`{"key": value, ...}`), no trailing newline —
    /// the campaign service's response bodies.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at nesting depth `indent`, or on one line when
    /// `indent` is `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                // Scalar-only arrays stay on one line (voltage grids read
                // naturally); nested structures get one element per line.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                let entries = items.iter().map(|item| (None, item));
                write_entries(out, ['[', ']'], entries, indent.filter(|_| !scalar));
            }
            Json::Obj(fields) => {
                let entries = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_entries(out, ['{', '}'], entries, indent);
            }
        }
    }
}

/// Writes array items or object fields (`key` set) between `brackets`:
/// one entry per line at depth `indent`, or all on one line when it is
/// `None`. Empty containers print as `[]` / `{}` either way.
fn write_entries<'a>(
    out: &mut String,
    brackets: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    indent: Option<usize>,
) {
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in entries {
        if !empty {
            out.push(',');
        }
        match indent {
            Some(depth) => {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            None if !empty => out.push(' '),
            None => {}
        }
        empty = false;
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(": ");
        }
        value.write(out, indent.map(|depth| depth + 1));
    }
    if let (Some(depth), false) = (indent, empty) {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets[1]);
}

/// Escapes a string as a JSON string literal (quotes included) — the one
/// string encoder behind [`Json`] documents, JSONL rows and the campaign
/// service's payloads.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a `u64` losslessly: as a JSON number when `f64` can carry
/// it exactly, as a decimal string otherwise (seeds and scrambler keys
/// routinely use all 64 bits).
pub fn u64_json(value: u64) -> Json {
    if value <= (1u64 << 53) {
        Json::Num(value as f64)
    } else {
        Json::Str(value.to_string())
    }
}

/// Parses a `u64` from either encoding produced by [`u64_json`].
pub fn json_u64(value: &Json) -> Option<u64> {
    match value {
        Json::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
}

/// Formats a finite number the shortest way that round-trips (integers
/// without a decimal point, everything else via Rust's shortest-repr
/// float formatting, which `parse::<f64>` inverts exactly).
fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{n:.0}")
    } else {
        format!("{n}")
    }
}

/// How deeply arrays and objects may nest. Specs need a handful of
/// levels; the bound keeps the recursive descent from overflowing a
/// thread's stack on hostile input such as a body of a million `[`.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected {token:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(&format!("unexpected byte {:?}", other as char))),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not expected in spec files;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever advances
                    // by whole characters, so it sits on a boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number characters");
        let n: f64 = text
            .parse()
            .map_err(|_| self.error(&format!("invalid number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.error("numbers must be finite"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\\"\"").unwrap(),
            Json::Str("a\n\"b\"".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"name": "fig4", "grid": {"axis": "voltage", "values": [0.5, 0.9]}, "apps": ["dwt"]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig4"));
        let grid = v.get("grid").unwrap();
        assert_eq!(grid.get("axis").unwrap().as_str(), Some("voltage"));
        assert_eq!(grid.get("values").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.compact(), doc, "compact output is the one-line layout");
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn a_mebibyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        // Spawned threads get the default 2 MiB stack, as the service's
        // handler threads do; unbounded recursion aborted the process.
        let body = "[".repeat(1 << 20);
        let parsed = std::thread::spawn(move || Json::parse(&body).is_err())
            .join()
            .expect("parse thread");
        assert!(parsed);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let text = format!("\"{}é\"", "a".repeat(1 << 20));
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some((1 << 20) + 2));
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("noise-sweep".into())),
            ("trials".into(), Json::Num(50.0)),
            (
                "scales".into(),
                Json::Arr(vec![Json::Num(0.5), Json::Num(2.0)]),
            ),
            ("out".into(), Json::Null),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::Bool(false))]),
            ),
        ]);
        let text = v.pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Pretty output is stable (canonical bytes for spec files).
        assert_eq!(Json::parse(&text).unwrap().pretty(), text);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(200.0).pretty(), "200\n");
        assert_eq!(Json::Num(0.55).pretty(), "0.55\n");
        assert_eq!(Json::Num(-7.6).pretty(), "-7.6\n");
    }

    #[test]
    fn unicode_survives_round_trip() {
        let v = Json::Str("µV — émt".into());
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}
