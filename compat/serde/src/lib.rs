//! Offline drop-in subset of `serde`.
//!
//! The build environment cannot fetch crates, so this workspace ships a
//! small value-tree serialization framework under the `serde` name. There
//! is no derive macro: the handful of trace types implement
//! [`Serialize`]/[`Deserialize`] by hand against [`Value`], and the
//! companion `serde_json` stub renders/parses that tree as JSON.
//!
//! Integers round-trip exactly: [`Number`] keeps `u64`/`i64` payloads
//! distinct from floats rather than coercing everything to `f64`.

#![deny(missing_docs)]

use std::collections::BTreeMap;

/// A JSON-style number that preserves integer exactness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point.
    F64(f64),
}

impl Number {
    /// The value as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(_) => None,
        }
    }

    /// The value as `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U64(v) => i64::try_from(v).ok(),
            Number::I64(v) => Some(v),
            Number::F64(_) => None,
        }
    }

    /// The value as `f64` (integers are converted).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }
}

/// An in-memory data tree, the interchange format between `Serialize`
/// implementations and concrete formats such as `serde_json`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key-value map (sorted by key for deterministic output).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Fetch a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

macro_rules! value_from {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value { v.to_value() }
        })*
    };
}
value_from!(u64, f64, bool, &str, String);

/// Error produced when a [`Value`] does not match the shape a
/// [`Deserialize`] implementation expects.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Convenience constructor.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

/// Convert `self` into a [`Value`] tree.
pub trait Serialize {
    /// Build the value tree for this object.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parse the value tree, reporting shape mismatches as [`DeError`].
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

macro_rules! int_impls {
    ($($u:ty),*; $($i:ty),*) => {
        $(impl Serialize for $u {
            fn to_value(&self) -> Value { Value::Number(Number::U64(*self as u64)) }
        }
        impl Deserialize for $u {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|x| <$u>::try_from(x).ok())
                        .ok_or_else(|| DeError::msg(concat!("out of range for ", stringify!($u)))),
                    _ => Err(DeError::msg(concat!("expected ", stringify!($u)))),
                }
            }
        })*
        $(impl Serialize for $i {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::U64(v as u64))
                } else {
                    Value::Number(Number::I64(v))
                }
            }
        }
        impl Deserialize for $i {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|x| <$i>::try_from(x).ok())
                        .ok_or_else(|| DeError::msg(concat!("out of range for ", stringify!($i)))),
                    _ => Err(DeError::msg(concat!("expected ", stringify!($i)))),
                }
            }
        })*
    };
}
int_impls!(u8, u16, u32, u64, usize; i8, i16, i32, i64, isize);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(DeError::msg("expected f64")),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::msg("expected bool")),
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
            _ => Err(DeError::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::msg("expected array")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Helper for struct impls: fetch a required object field and deserialize it.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(fv) => T::from_value(fv).map_err(|e| DeError(format!("field `{name}`: {e}"))),
        None => Err(DeError(format!("missing field `{name}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX - 3;
        let v = big.to_value();
        assert_eq!(u64::from_value(&v), Ok(big));
    }

    #[test]
    fn option_null_round_trip() {
        let none: Option<u32> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(
            Option::<u32>::from_value(&Value::Number(Number::U64(5))),
            Ok(Some(5))
        );
    }

    #[test]
    fn field_errors_name_the_field() {
        let v = Value::Object(BTreeMap::new());
        let err = field::<u32>(&v, "nodes").unwrap_err();
        assert!(err.0.contains("nodes"));
    }
}
