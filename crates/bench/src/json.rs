//! A minimal JSON writer for the `BENCH_*.json` artifacts.
//!
//! The workspace is dependency-free (no serde), and the bench output
//! schema is small and flat, so a hand-rolled builder suffices. The schema
//! itself is documented in `EXPERIMENTS.md` ("The `BENCH_*.json` schema").
//!
//! ```
//! use wizard_bench::json::Json;
//!
//! let j = Json::object([
//!     ("bench", Json::str("dispatch_speed")),
//!     ("shards", Json::num(4.0)),
//!     ("names", Json::array(vec![Json::str("richards")])),
//! ]);
//! assert_eq!(
//!     j.to_string(),
//!     r#"{"bench":"dispatch_speed","shards":4,"names":["richards"]}"#
//! );
//! ```

/// A JSON value: enough of the data model for flat benchmark reports.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (integral values print without a decimal point).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// An array value.
    pub fn array(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// An object from `(key, value)` pairs (insertion order preserved).
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl core::fmt::Display for Json {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                let mut out = String::new();
                escape(s, &mut out);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::new();
                    escape(k, &mut key);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_numbers() {
        let j = Json::object([
            ("s", Json::str("a\"b\\c\nd")),
            ("i", Json::num(3.0)),
            ("f", Json::num(2.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
        ]);
        assert_eq!(j.to_string(), r#"{"s":"a\"b\\c\nd","i":3,"f":2.5,"b":true,"z":null}"#);
    }
}
