//! The workspace's one JSON writer: a value type and its renderer.
//!
//! Every deterministic artifact — flight-recorder traces, metrics,
//! campaign reports, experiment tables, lint findings — is built as a
//! [`Json`] value and rendered by [`Json::render`], so its bytes are
//! decided here once, by fixed rules with no caller-chosen style:
//!
//! * **Strings** escape `"`, `\` and every control character
//!   U+0000–U+001F (`\n`, `\r`, `\t` in short form, the rest as
//!   `\u00XX`).
//! * **Numbers**: integers print exactly; floats print with six
//!   decimals, and a non-finite float renders as `null`.
//! * **Layout**: an array stays on one line unless it holds an object.
//!   An object stays on one line only as an array element holding no
//!   object — a *row*: a trace event, a table row, a lint finding.
//!   Every other object puts one member per line, indented by two
//!   spaces. Separators are `, ` and `: `; a document ends with a
//!   newline. So a trace diff stays one line per event.

use std::fmt::Write as _;

/// A JSON value. Objects keep their members in insertion order, which
/// is the order they render in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed exactly (wide enough for every `u64` and
    /// `i64`).
    Int(i128),
    /// A float, printed with six decimals (`null` when non-finite).
    Float(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object of the given members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the given items, in order.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value as a document (module docs), ending in a
    /// newline. Equal values render to equal bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out.push('\n');
        out
    }

    /// Whether an object is nested anywhere inside this value.
    fn holds_object(&self) -> bool {
        let is_or_holds = |v: &Json| matches!(v, Json::Object(_)) || v.holds_object();
        match self {
            Json::Array(items) => items.iter().any(is_or_holds),
            Json::Object(members) => members.iter().any(|(_, v)| is_or_holds(v)),
            _ => false,
        }
    }

    /// Writes the value at nesting depth `depth`; `element` marks an
    /// array element (the only place an object may stay on one line).
    fn write(&self, out: &mut String, depth: usize, element: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f:.6}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => escape(out, s),
            Json::Array(items) if items.is_empty() => out.push_str("[]"),
            Json::Object(members) if members.is_empty() => out.push_str("{}"),
            Json::Array(items) => {
                let inline = !self.holds_object();
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    separate(out, i, inline, depth + 1);
                    v.write(out, depth + 1, true);
                }
                close(out, ']', inline, depth);
            }
            Json::Object(members) => {
                let inline = element && !self.holds_object();
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    separate(out, i, inline, depth + 1);
                    escape(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1, false);
                }
                close(out, '}', inline, depth);
            }
        }
    }
}

/// Writes the separator before the `i`-th child of a container.
fn separate(out: &mut String, i: usize, inline: bool, depth: usize) {
    if inline {
        if i > 0 {
            out.push_str(", ");
        }
    } else {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        indent(out, depth);
    }
}

/// Closes a non-empty container.
fn close(out: &mut String, bracket: char, inline: bool, depth: usize) {
    if !inline {
        out.push('\n');
        indent(out, depth);
    }
    out.push(bracket);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// The one JSON string escaper.
fn escape(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_from!(u64, i64, usize);

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: u64) -> Json {
        Json::object([("a", a.into()), ("s", "x".into())])
    }

    #[test]
    fn every_control_character_is_escaped() {
        let all: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let text = Json::from(format!("{all}\"\\é").as_str()).render();
        assert!(
            text.trim_end().chars().all(|c| (c as u32) >= 0x20),
            "raw control character in {text:?}"
        );
        assert!(text.starts_with("\"\\u0000\\u0001"));
        assert!(text.contains("\\u0008\\t\\n\\u000b\\u000c\\r\\u000e"));
        assert!(text.ends_with("\\u001f\\\"\\\\é\"\n"));
        // Keys go through the same escaper.
        let obj = Json::object([("a\"b\n", Json::Null)]).render();
        assert_eq!(obj, "{\n  \"a\\\"b\\n\": null\n}\n");
    }

    #[test]
    fn empty_containers_render_inline() {
        assert_eq!(Json::object(Vec::<(&str, Json)>::new()).render(), "{}\n");
        assert_eq!(Json::array(Vec::<Json>::new()).render(), "[]\n");
        let doc = Json::object([
            ("a", Json::array(Vec::<Json>::new())),
            ("o", Json::object(Vec::<(&str, Json)>::new())),
        ]);
        assert_eq!(doc.render(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }

    #[test]
    fn key_order_is_insertion_order() {
        let doc = Json::object([("z", 1u64.into()), ("a", 2u64.into()), ("m", 3u64.into())]);
        assert_eq!(doc.render(), "{\n  \"z\": 1,\n  \"a\": 2,\n  \"m\": 3\n}\n");
    }

    #[test]
    fn rows_stay_on_one_line_and_records_break() {
        let doc = Json::object([
            ("n", 1u64.into()),
            (
                "pair",
                Json::array([Json::array([0u64, 1]), Json::array([2u64, 3])]),
            ),
            ("rows", Json::array([row(1), row(2)])),
            ("nested", Json::array([Json::object([("inner", row(3))])])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"n\": 1,\n  \"pair\": [[0, 1], [2, 3]],\n  \"rows\": [\n    \
             {\"a\": 1, \"s\": \"x\"},\n    {\"a\": 2, \"s\": \"x\"}\n  ],\n  \
             \"nested\": [\n    {\n      \"inner\": {\n        \"a\": 3,\n        \
             \"s\": \"x\"\n      }\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn numbers_have_fixed_forms() {
        let doc = Json::array([
            Json::from(u64::MAX),
            Json::from(i64::MIN),
            Json::from(0.25),
            Json::from(f64::NAN),
            Json::from(f64::INFINITY),
            Json::from(None::<u64>),
            Json::from(true),
        ]);
        assert_eq!(
            doc.render(),
            "[18446744073709551615, -9223372036854775808, 0.250000, null, null, null, true]\n"
        );
    }

    #[test]
    fn equal_values_render_equal_bytes() {
        let build = || Json::object([("rows", Json::array([row(1), row(2)])), ("f", 1.5.into())]);
        assert_eq!(build().render(), build().render());
        let v = build();
        assert_eq!(v.render(), v.clone().render());
    }
}
