//! The few JSON writers the result lines need (values arrive already
//! encoded; parsing goes through `dream_sim::scenario::json`).

/// `{"k": v, …}` from already-encoded values.
pub fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (non-finite values,
/// which JSON cannot carry, become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_valid_json() {
        let line = obj(&[
            ("a", num(1.25)),
            ("b", string("x\"y\n")),
            ("c", num(f64::NAN)),
        ]);
        assert_eq!(line, r#"{"a": 1.25, "b": "x\"y\u000a", "c": 0}"#);
        let doc = dream_sim::scenario::json::Json::parse(&line).expect("parses");
        assert_eq!(doc.get("b").and_then(|v| v.as_str()), Some("x\"y\n"));
    }
}
