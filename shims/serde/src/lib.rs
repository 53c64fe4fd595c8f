//! Offline shim for `serde`: `Serialize` / `Deserialize` traits over a
//! JSON-shaped data model, plus the derive macros (re-exported from the
//! sibling `serde_derive` proc-macro shim).
//!
//! The shim intentionally collapses serde's serializer-agnostic design to
//! the single backend this workspace uses (`serde_json`): `Serialize`
//! writes JSON text directly, `Deserialize` reads from a parsed
//! [`value::Value`] tree. Numbers keep their source text on the way in and
//! are printed with Rust's shortest-roundtrip formatter on the way out, so
//! `f64` survives a file round trip **bit-exactly** — the property the
//! checkpoint tests depend on (the real stack needs `serde_json`'s
//! `float_roundtrip` feature for the same guarantee).

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

use value::Value;

/// Serializes `self` as JSON text appended to `out`.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Reconstructs `Self` from a parsed JSON [`Value`].
pub trait Deserialize: Sized {
    /// Builds `Self` from `v`, with a path-less diagnostic on mismatch.
    fn deserialize_json(v: &Value) -> Result<Self, String>;
}

// ---------------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------------

/// Appends a JSON string literal (with escaping).
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `"key":` — helper used by the derive expansion.
pub fn write_key(key: &str, out: &mut String) {
    write_json_string(key, out);
    out.push(':');
}

macro_rules! impl_serialize_display_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*}
}
impl_serialize_display_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        if self.is_finite() {
            // Rust's Display for floats is shortest-roundtrip: parsing the
            // text back yields the identical bits.
            let text = self.to_string();
            out.push_str(&text);
        } else {
            // JSON has no literal for NaN/Inf; null round-trips to an error
            // rather than silently corrupting state.
            out.push_str("null");
        }
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        (*self as f64).serialize_json(out)
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out)
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.serialize_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*}
}
impl_serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------------

macro_rules! impl_deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize_json(v: &Value) -> Result<Self, String> {
                match v {
                    Value::Number(text) => text
                        .parse::<$t>()
                        .map_err(|e| format!("invalid {}: {text:?} ({e})", stringify!($t))),
                    other => Err(format!(
                        "expected {} number, found {}", stringify!($t), other.kind()
                    )),
                }
            }
        }
    )*}
}
impl_deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize_json(v: &Value) -> Result<Self, String> {
        match v {
            // Exact: Rust's float parser is correctly rounded, and the
            // writer printed the shortest roundtrip form. A number too large
            // for an f64 would parse as infinity, which the writer cannot
            // print back (it writes `null`), so it is an error here.
            Value::Number(text) => match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(format!("f64 out of range: {text:?}")),
                Err(e) => Err(format!("invalid f64: {text:?} ({e})")),
            },
            other => Err(format!("expected f64 number, found {}", other.kind())),
        }
    }
}

impl Deserialize for bool {
    fn deserialize_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {}", other.kind())),
        }
    }
}

impl Deserialize for String {
    fn deserialize_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(format!("expected string, found {}", other.kind())),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize_json).collect(),
            other => Err(format!("expected array, found {}", other.kind())),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_json(other).map(Some),
        }
    }
}

macro_rules! impl_deserialize_tuple {
    ($(($($name:ident : $idx:tt),+ ; $len:expr))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_json(v: &Value) -> Result<Self, String> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::deserialize_json(&items[$idx])?,)+))
                    }
                    Value::Array(items) => Err(format!(
                        "expected {}-tuple, found array of {}", $len, items.len()
                    )),
                    other => Err(format!("expected tuple array, found {}", other.kind())),
                }
            }
        }
    )*}
}
impl_deserialize_tuple! {
    (A: 0 ; 1)
    (A: 0, B: 1 ; 2)
    (A: 0, B: 1, C: 2 ; 3)
    (A: 0, B: 1, C: 2, D: 3 ; 4)
}

/// Looks up `key` in an object and deserializes it — helper used by the
/// derive expansion.
pub fn field<T: Deserialize>(obj: &[(String, Value)], key: &str) -> Result<T, String> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::deserialize_json(v).map_err(|e| format!("field {key:?}: {e}")),
        None => Err(format!("missing field {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_text_roundtrip_is_bit_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            2f64.powi(-1074), // smallest subnormal
            1.7976931348623157e308,
            -0.0,
            6.02214076e23,
            std::f64::consts::PI,
        ] {
            let mut out = String::new();
            x.serialize_json(&mut out);
            let back = f64::deserialize_json(&Value::Number(out)).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x}");
        }
    }

    #[test]
    fn f64_beyond_range_is_rejected() {
        for text in ["1e999", "-1e309"] {
            assert!(
                f64::deserialize_json(&Value::Number(text.into())).is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn tuple_and_vec_roundtrip() {
        let v: Vec<(u32, u16, u16)> = vec![(1, 2, 3), (9, 8, 7)];
        let mut out = String::new();
        v.serialize_json(&mut out);
        assert_eq!(out, "[[1,2,3],[9,8,7]]");
    }

    #[test]
    fn strings_escape() {
        let mut out = String::new();
        "a\"b\\c\n".serialize_json(&mut out);
        assert_eq!(out, r#""a\"b\\c\n""#);
    }
}
