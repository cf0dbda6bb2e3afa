//! Offline stand-in for `serde`.
//!
//! The build environment has no registry access, so this workspace vendors a
//! self-serialisation layer with serde's public spelling: `Serialize` /
//! `Deserialize` traits plus same-named derive macros. Instead of serde's
//! visitor architecture, types convert to and from a JSON-shaped [`Value`]
//! tree; `serde_json` (also vendored) renders that tree to text and parses it
//! back. The derive macros cover structs only, emitting objects and
//! transparent newtypes: the wire shapes real serde would produce for the
//! types in this workspace (which use no `#[serde(...)]` attributes).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped data model: the intermediate form between typed values and
/// wire text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (used when the value exceeds `i64::MAX`).
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Borrows the elements if this is an array.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Error produced when a [`Value`] does not match the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error with a free-form message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Standard "wrong shape" error.
    pub fn expected(what: &str, got: &Value) -> Self {
        Self::custom(format!("expected {what}, got {}", kind_of(got)))
    }
}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Seq(_) => "array",
        Value::Map(_) => "object",
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the tree's shape does not match `Self`.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

pub mod de {
    //! Deserialisation helpers, mirroring serde's module layout.

    pub use super::DeError as Error;

    /// Marker for types deserialisable without borrowing from the input —
    /// with this shim's owned data model, every [`Deserialize`](super::Deserialize)
    /// type qualifies.
    pub trait DeserializeOwned: super::Deserialize {}

    impl<T: super::Deserialize> DeserializeOwned for T {}
}

pub mod ser {
    //! Serialisation helpers, mirroring serde's module layout.

    pub use super::Serialize;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: i128 = match *value {
                    Value::I64(n) => n as i128,
                    Value::U64(n) => n as i128,
                    Value::F64(n) if n.fract() == 0.0 => n as i128,
                    ref other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                if wide <= i64::MAX as u64 { Value::I64(wide as i64) } else { Value::U64(wide) }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: u128 = match *value {
                    Value::I64(n) if n >= 0 => n as u128,
                    Value::U64(n) => n as u128,
                    Value::F64(n) if n.fract() == 0.0 && n >= 0.0 => n as u128,
                    ref other => return Err(DeError::expected("unsigned integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match *value {
                    Value::F64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    Value::U64(n) => Ok(n as $t),
                    ref other => Err(DeError::expected("number", other)),
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
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-character string", other)),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(()),
            other => Err(DeError::expected("null", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_seq()
            .ok_or_else(|| DeError::expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(value)?;
        <[T; N]>::try_from(items)
            .map_err(|items| DeError::custom(format!("expected {N} elements, got {}", items.len())))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value.as_seq().ok_or_else(|| DeError::expected("array", value))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(DeError::custom(format!(
                        "expected {expected}-tuple, got {} elements", items.len())));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Map keys must render as JSON object keys (strings).
pub trait MapKey: Sized {
    /// Renders the key as a string.
    fn to_key(&self) -> String;
    /// Parses the key back.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the string does not parse as `Self`.
    fn from_key(key: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(key: &str) -> Result<Self, DeError> {
                key.parse().map_err(|_| DeError::custom(format!("bad integer key {key:?}")))
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + std::hash::Hash + Eq, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + std::hash::Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_map()
            .ok_or_else(|| DeError::expected("object", value))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_map()
            .ok_or_else(|| DeError::expected("object", value))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrips_through_null() {
        let none: Option<u32> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u32>::from_value(&Value::I64(3)), Ok(Some(3)));
    }

    #[test]
    fn integers_coerce_within_range() {
        assert_eq!(u8::from_value(&Value::I64(200)), Ok(200));
        assert!(u8::from_value(&Value::I64(300)).is_err());
        assert!(u32::from_value(&Value::I64(-1)).is_err());
    }

    #[test]
    fn tuples_are_arrays() {
        let v = (1u32, 2.5f64).to_value();
        assert_eq!(v, Value::Seq(vec![Value::I64(1), Value::F64(2.5)]));
        assert_eq!(<(u32, f64)>::from_value(&v), Ok((1u32, 2.5f64)));
    }
}
