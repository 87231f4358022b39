//! A hand-written JSON emitter (the workspace's `serde` is a no-op stand-in,
//! so nothing can be serialized through it).

use std::fmt::Write;

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (which JSON cannot hold) become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// An object built field by field, in insertion order.
#[derive(Debug, Default)]
pub struct Object {
    body: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Add `key` with an already-encoded JSON `value`.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&string(key));
        self.body.push_str(": ");
        self.body.push_str(value.as_ref());
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Add a number field.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, number(value))
    }

    /// Add an integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_strings_numbers_and_objects() {
        assert_eq!(string("a\"b\\c\n\u{1}"), r#""a\"b\\c\n\u0001""#);
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        let o = Object::new()
            .str("name", "x")
            .int("n", 3)
            .bool("ok", true)
            .raw("inner", Object::new().num("v", 0.5).finish())
            .finish();
        assert_eq!(
            o,
            r#"{"name": "x", "n": 3, "ok": true, "inner": {"v": 0.5}}"#
        );
    }
}
