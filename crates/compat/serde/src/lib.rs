//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a small serialization facade with serde-compatible *spelling*: a
//! [`Serialize`]/[`Deserialize`] trait pair (plus derive macros re-exported
//! from `serde_derive`) that route through an owned JSON [`Value`] tree
//! instead of serde's zero-copy visitor machinery. `serde_json` in this
//! workspace renders/parses that tree.
//!
//! Supported shapes — everything the repo derives or writes by hand:
//! structs with named fields, newtype structs, the primitive/`String`
//! types, `Option<T>`, `Vec<T>`, slices, and string-keyed maps.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An owned JSON document.
///
/// Numbers keep their literal text so integer fidelity (including the
/// `i128` utilities this workspace uses) survives a round trip.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A numeric literal, verbatim.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up an object key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Renders as indented JSON (two spaces).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(n),
            Value::String(s) => escape_into(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    break_line(out, indent, level + 1);
                    item.render(out, indent, level + 1);
                }
                break_line(out, indent, level);
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    break_line(out, indent, level + 1);
                    escape_into(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent, level + 1);
                }
                break_line(out, indent, level);
                out.push('}');
            }
        }
    }
}

/// Under pretty rendering, a line break followed by `level` indents;
/// nothing when compact.
fn break_line(out: &mut String, indent: Option<usize>, level: usize) {
    const SPACES: &str =
        "                                                                ";
    let Some(width) = indent else { return };
    out.push('\n');
    let mut pad = width * level;
    while pad > 0 {
        let n = pad.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        pad -= n;
    }
}

fn escape_into(s: &str, out: &mut String) {
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
}

/// Types renderable as a JSON [`Value`].
pub trait Serialize {
    /// Converts to a JSON value tree.
    fn to_value(&self) -> Value;
}

/// A deserialization failure: what was expected, what was found.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// An "expected X for Y" error.
    pub fn expected(what: &str, context: &str) -> Self {
        DeError(format!("expected {what} for {context}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types reconstructible from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Builds from a JSON value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Fetches and deserializes a struct field (derive-macro support).
/// Missing keys read as `Null` so `Option` fields default to `None`.
pub fn field<T: Deserialize>(v: &Value, name: &str, ty: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(fv) => {
            T::from_value(fv).map_err(|e| DeError(format!("{ty}.{name}: {}", e.0)))
        }
        None => T::from_value(&Value::Null)
            .map_err(|_| DeError(format!("{ty}: missing field {name:?}"))),
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .parse::<$t>()
                        .map_err(|_| DeError(format!("number {n} out of range for {}", stringify!($t)))),
                    _ => Err(DeError::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if self.is_finite() {
                    Value::Number(format!("{self}"))
                } else {
                    Value::Null // serde_json convention for NaN/inf
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .parse::<$t>()
                        .map_err(|_| DeError(format!("bad float literal {n}"))),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(DeError::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:ident . $idx:tt),+))*) => {$(
        impl<$($n: Serialize),+> Serialize for ($($n,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($n: Deserialize),+> Deserialize for ($($n,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) => Ok((
                        $($n::from_value(
                            items.get($idx).unwrap_or(&Value::Null),
                        )?,)+
                    )),
                    _ => Err(DeError::expected("array", "tuple")),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(entries) => {
                entries.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            _ => Err(DeError::expected("object", "BTreeMap")),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<_> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::from_value(&v.to_value()).unwrap(), v);
        }
        let big: i128 = i128::MAX;
        assert_eq!(i128::from_value(&big.to_value()).unwrap(), big);
        assert_eq!(
            String::from_value(&"hi \"there\"\n".to_string().to_value()).unwrap(),
            "hi \"there\"\n"
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Vec::<u8>::from_value(&vec![1u8, 2].to_value()).unwrap(), vec![1, 2]);
    }

    #[test]
    fn escaping() {
        assert_eq!("a\"b\\c\n".to_string().to_value().to_json(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number("1".into())),
            ("b".into(), Value::Array(vec![Value::Bool(true)])),
        ]);
        assert_eq!(v.to_json(), r#"{"a":1,"b":[true]}"#);
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n  \"a\": 1"), "{pretty}");
    }
}
