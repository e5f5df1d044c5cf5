//! Minimal JSON serialization for exhibit tables and timing rows.
//!
//! The workspace is std-only, and what it emits is small: tables of
//! cells, strings and flat rows of scalars. This module is the whole of
//! what they need: a [`Json`] value tree, a [`ToJson`] conversion trait,
//! and a pretty printer matching serde_json's 2-space layout.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (serialized without a decimal point).
    U64(u64),
    /// A float (serialized via Rust's shortest round-trip `Display`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}
impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}
impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}
impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}
impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}
impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Builds a [`Json::Object`] from `(key, value)` pairs.
pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn escape_into(out: &mut String, s: &str) {
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
}

fn number(out: &mut String, x: f64) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // Keep whole floats readable as "12.0".
            let _ = write!(out, "{x:.1}");
        } else {
            let _ = write!(out, "{x}");
        }
    } else {
        // JSON has no NaN/Inf; mirror the "lossy but valid" convention.
        out.push_str("null");
    }
}

impl Json {
    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => number(out, *x),
            Json::Str(s) => escape_into(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&INDENT.repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&INDENT.repeat(depth + 1));
                    escape_into(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
        }
    }
}

/// Pretty-prints `value` with 2-space indentation (serde_json's layout).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.to_json().write_pretty(&mut out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(to_string_pretty(&true), "true");
        assert_eq!(to_string_pretty(&42u64), "42");
        assert_eq!(to_string_pretty(&1.5f64), "1.5");
        assert_eq!(to_string_pretty(&90.0f64), "90.0");
        assert_eq!(to_string_pretty("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(to_string_pretty(&f64::NAN), "null");
        assert_eq!(to_string_pretty(&f64::INFINITY), "null");
    }

    #[test]
    fn nested_layout_matches_serde_json() {
        let v = vec![
            object([("name", Json::Str("a".into())), ("n", Json::U64(1))]),
            object([("name", Json::Str("b".into())), ("n", Json::U64(2))]),
        ];
        let expect = "[\n  {\n    \"name\": \"a\",\n    \"n\": 1\n  },\n  {\n    \"name\": \"b\",\n    \"n\": 2\n  }\n]";
        assert_eq!(to_string_pretty(&v), expect);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string_pretty(&Vec::<u64>::new()), "[]");
        assert_eq!(to_string_pretty(&Json::Object(Vec::new())), "{}");
    }
}
