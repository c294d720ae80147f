//! A minimal JSON writer.
//!
//! The workspace carries no external crates, so everything that emits JSON
//! (bench artifacts, trace lines, metrics snapshots) builds strings by
//! hand. This module centralizes the two fiddly parts — string escaping
//! and float formatting — behind a tiny object/array builder, so every
//! emitter produces the same well-formed output.

use std::fmt::Write;

/// Escapes `s` into a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
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

/// Formats a float the way the bench artifacts do: finite numbers as-is,
/// non-finite ones as `null` (JSON has no NaN/Infinity).
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An incremental JSON object builder.
///
/// ```
/// let mut o = starshare_obs::json::Obj::new();
/// o.field_u64("n", 3);
/// o.field_str("name", "scan");
/// assert_eq!(o.finish(), r#"{"n":3,"name":"scan"}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(&escape(k));
        self.buf.push(':');
    }

    /// Adds a raw, pre-serialized JSON value (object, array, number…).
    pub fn field_raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&float(v));
        self
    }

    /// Adds an optional float field (`null` when absent).
    pub fn field_opt_f64(&mut self, k: &str, v: Option<f64>) -> &mut Self {
        self.field_f64(k, v.unwrap_or(f64::NAN))
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serializes an iterator of pre-serialized JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn builder_produces_valid_json() {
        let mut o = Obj::new();
        o.field_u64("a", 1);
        o.field_f64("b", 1.5);
        o.field_str("c", "x");
        o.field_bool("d", true);
        o.field_raw("e", "[1,2]");
        assert_eq!(o.finish(), r#"{"a":1,"b":1.5,"c":"x","d":true,"e":[1,2]}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(2.25), "2.25");
    }

    #[test]
    fn array_joins_items() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
