//! Dynamic values exchanged between orchestrated components.
//!
//! Every datum flowing through the runtime — sensor readings, context
//! publications, action arguments — is a [`Value`]. Values are checked
//! against the [`Type`]s declared in the specification at the component
//! boundaries, so a design contract violation is caught at the edge where
//! it happens rather than deep inside application logic.

use diaspec_core::model::CheckedSpec;
use diaspec_core::types::Type;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically typed DiaSpec value.
///
/// # Ordering and hashing
///
/// `Value` implements total [`Ord`] and [`Hash`] (floats via
/// [`f64::total_cmp`] / bit pattern) so values can key grouping maps — the
/// runtime's `grouped by` partitioning relies on this.
///
/// # Examples
///
/// ```
/// use diaspec_runtime::value::Value;
///
/// let v = Value::from(42i64);
/// assert_eq!(v.as_int(), Some(42));
/// let lot = Value::enum_value("ParkingLotEnum", "A22");
/// assert_eq!(lot.to_string(), "ParkingLotEnum.A22");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// An `Integer` value.
    Int(i64),
    /// A `Float` value.
    Float(f64),
    /// A `Boolean` value.
    Bool(bool),
    /// A `String` value.
    Str(String),
    /// A variant of a declared enumeration.
    Enum {
        /// Enumeration name.
        enumeration: String,
        /// Variant name.
        variant: String,
    },
    /// An instance of a declared structure.
    Struct {
        /// Structure name.
        structure: String,
        /// Field values by name.
        fields: BTreeMap<String, Value>,
    },
    /// An array of values.
    Array(Vec<Value>),
}

impl Value {
    /// Creates an enumeration value.
    #[must_use]
    pub fn enum_value(enumeration: impl Into<String>, variant: impl Into<String>) -> Self {
        Value::Enum {
            enumeration: enumeration.into(),
            variant: variant.into(),
        }
    }

    /// Creates a structure value from `(field, value)` pairs.
    #[must_use]
    pub fn structure(
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (String, Value)>,
    ) -> Self {
        Value::Struct {
            structure: name.into(),
            fields: fields.into_iter().collect(),
        }
    }

    /// The integer payload, if this is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an `Array`.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A field of a `Struct` value, by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct { fields, .. } => fields.get(name),
            _ => None,
        }
    }

    /// Checks that this value conforms to `ty` under the declared types of
    /// `spec`.
    ///
    /// Conformance is structural for built-ins and arrays, nominal for
    /// enumerations (the variant must be declared) and structures (every
    /// declared field must be present and conforming, and no extra fields
    /// are allowed).
    #[must_use]
    pub fn conforms_to(&self, ty: &Type, spec: &CheckedSpec) -> bool {
        match (self, ty) {
            (Value::Int(_), Type::Integer)
            | (Value::Float(_), Type::Float)
            | (Value::Bool(_), Type::Boolean)
            | (Value::Str(_), Type::String) => true,
            (
                Value::Enum {
                    enumeration,
                    variant,
                },
                Type::Enum(name),
            ) => {
                enumeration == name
                    && spec
                        .enumeration(name)
                        .is_some_and(|e| e.has_variant(variant))
            }
            (Value::Struct { structure, fields }, Type::Struct(name)) => {
                if structure != name {
                    return false;
                }
                let Some(decl) = spec.structure(name) else {
                    return false;
                };
                decl.fields.len() == fields.len()
                    && decl.fields.iter().all(|(fname, fty)| {
                        fields.get(fname).is_some_and(|v| v.conforms_to(fty, spec))
                    })
            }
            (Value::Array(items), Type::Array(elem)) => {
                items.iter().all(|v| v.conforms_to(elem, spec))
            }
            _ => false,
        }
    }

    /// Estimated in-memory footprint of this value in bytes, counting the
    /// enum discriminant plus every transitively owned heap allocation.
    ///
    /// Used by the fan-out experiment (E18) to account for how many bytes
    /// a deep copy of a payload would move, versus the pointer-sized
    /// [`Payload`](crate::payload::Payload) clone the delivery pipeline
    /// performs.
    #[must_use]
    pub fn deep_size(&self) -> u64 {
        let inline = std::mem::size_of::<Value>() as u64;
        let heap = match self {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => 0,
            Value::Str(s) => s.capacity() as u64,
            Value::Enum {
                enumeration,
                variant,
            } => (enumeration.capacity() + variant.capacity()) as u64,
            Value::Struct { structure, fields } => {
                structure.capacity() as u64
                    + fields
                        .iter()
                        .map(|(name, value)| name.capacity() as u64 + value.deep_size())
                        .sum::<u64>()
            }
            Value::Array(items) => items.iter().map(Value::deep_size).sum(),
        };
        inline + heap
    }
}

/// Conversion between Rust types and dynamic [`Value`]s.
///
/// The framework generator (`diaspec-codegen`) emits `ValueCodec`
/// implementations for every declared structure and enumeration, letting
/// generated typed callbacks convert transparently at the component
/// boundary. Built-in DiaSpec types map as: `Integer` ↔ [`i64`],
/// `Float` ↔ [`f64`], `Boolean` ↔ [`bool`], `String` ↔ [`String`],
/// `T[]` ↔ [`Vec<T>`].
///
/// # Examples
///
/// ```
/// use diaspec_runtime::value::{Value, ValueCodec};
///
/// let v = vec![1i64, 2, 3].into_value();
/// assert_eq!(Vec::<i64>::from_value(&v), Some(vec![1, 2, 3]));
/// assert_eq!(bool::from_value(&v), None);
/// ```
pub trait ValueCodec: Sized {
    /// Converts this value into a dynamic [`Value`].
    fn into_value(self) -> Value;

    /// Extracts a typed value, returning `None` on a shape mismatch.
    fn from_value(value: &Value) -> Option<Self>;
}

impl ValueCodec for i64 {
    fn into_value(self) -> Value {
        Value::Int(self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        value.as_int()
    }
}

impl ValueCodec for f64 {
    fn into_value(self) -> Value {
        Value::Float(self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        value.as_float()
    }
}

impl ValueCodec for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        value.as_bool()
    }
}

impl ValueCodec for String {
    fn into_value(self) -> Value {
        Value::Str(self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl ValueCodec for Value {
    fn into_value(self) -> Value {
        self
    }
    fn from_value(value: &Value) -> Option<Self> {
        Some(value.clone())
    }
}

impl<T: ValueCodec> ValueCodec for Vec<T> {
    fn into_value(self) -> Value {
        Value::Array(self.into_iter().map(ValueCodec::into_value).collect())
    }
    fn from_value(value: &Value) -> Option<Self> {
        value.as_array()?.iter().map(T::from_value).collect()
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::Array(iter.into_iter().collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Enum {
                enumeration,
                variant,
            } => write!(f, "{enumeration}.{variant}"),
            Value::Struct { structure, fields } => {
                write!(f, "{structure} {{ ")?;
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{name}: {value}")?;
                }
                f.write_str(" }")
            }
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Int(_) => 0,
                Float(_) => 1,
                Bool(_) => 2,
                Str(_) => 3,
                Enum { .. } => 4,
                Struct { .. } => 5,
                Array(_) => 6,
            }
        }
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (
                Enum {
                    enumeration: ea,
                    variant: va,
                },
                Enum {
                    enumeration: eb,
                    variant: vb,
                },
            ) => ea.cmp(eb).then_with(|| va.cmp(vb)),
            (
                Struct {
                    structure: sa,
                    fields: fa,
                },
                Struct {
                    structure: sb,
                    fields: fb,
                },
            ) => sa.cmp(sb).then_with(|| fa.cmp(fb)),
            (Array(a), Array(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Str(s) => s.hash(state),
            Value::Enum {
                enumeration,
                variant,
            } => {
                enumeration.hash(state);
                variant.hash(state);
            }
            Value::Struct { structure, fields } => {
                structure.hash(state);
                for (k, v) in fields {
                    k.hash(state);
                    v.hash(state);
                }
            }
            Value::Array(items) => items.hash(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    fn spec() -> CheckedSpec {
        compile_str(
            r#"
            device D { source s as Integer; }
            structure Availability {
              parkingLot as ParkingLotEnum;
              count as Integer;
            }
            enumeration ParkingLotEnum { A22, B16 }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::Int(3).as_float(), None);
        let arr: Value = vec![1i64, 2, 3].into();
        assert_eq!(arr.as_array().unwrap().len(), 3);
    }

    #[test]
    fn struct_field_access() {
        let v = Value::structure(
            "Availability",
            [
                (
                    "parkingLot".to_owned(),
                    Value::enum_value("ParkingLotEnum", "A22"),
                ),
                ("count".to_owned(), Value::Int(12)),
            ],
        );
        assert_eq!(v.field("count"), Some(&Value::Int(12)));
        assert_eq!(v.field("ghost"), None);
        assert_eq!(Value::Int(1).field("x"), None);
    }

    #[test]
    fn conformance_builtins() {
        let s = spec();
        assert!(Value::Int(1).conforms_to(&Type::Integer, &s));
        assert!(!Value::Int(1).conforms_to(&Type::Float, &s));
        assert!(Value::Float(1.0).conforms_to(&Type::Float, &s));
        assert!(Value::Bool(true).conforms_to(&Type::Boolean, &s));
        assert!(Value::from("x").conforms_to(&Type::String, &s));
    }

    #[test]
    fn conformance_enum() {
        let s = spec();
        let ty = Type::Enum("ParkingLotEnum".into());
        assert!(Value::enum_value("ParkingLotEnum", "A22").conforms_to(&ty, &s));
        assert!(!Value::enum_value("ParkingLotEnum", "Z9").conforms_to(&ty, &s));
        assert!(!Value::enum_value("Other", "A22").conforms_to(&ty, &s));
        assert!(!Value::Int(0).conforms_to(&ty, &s));
    }

    #[test]
    fn conformance_struct() {
        let s = spec();
        let ty = Type::Struct("Availability".into());
        let good = Value::structure(
            "Availability",
            [
                (
                    "parkingLot".to_owned(),
                    Value::enum_value("ParkingLotEnum", "B16"),
                ),
                ("count".to_owned(), Value::Int(4)),
            ],
        );
        assert!(good.conforms_to(&ty, &s));
        let missing_field = Value::structure("Availability", [("count".to_owned(), Value::Int(4))]);
        assert!(!missing_field.conforms_to(&ty, &s));
        let extra_field = Value::structure(
            "Availability",
            [
                (
                    "parkingLot".to_owned(),
                    Value::enum_value("ParkingLotEnum", "B16"),
                ),
                ("count".to_owned(), Value::Int(4)),
                ("bogus".to_owned(), Value::Int(0)),
            ],
        );
        assert!(!extra_field.conforms_to(&ty, &s));
        let wrong_field_type = Value::structure(
            "Availability",
            [
                (
                    "parkingLot".to_owned(),
                    Value::enum_value("ParkingLotEnum", "B16"),
                ),
                ("count".to_owned(), Value::Float(4.0)),
            ],
        );
        assert!(!wrong_field_type.conforms_to(&ty, &s));
    }

    #[test]
    fn conformance_array() {
        let s = spec();
        let ty = Type::Integer.array();
        let good: Value = vec![1i64, 2].into();
        assert!(good.conforms_to(&ty, &s));
        let empty = Value::Array(vec![]);
        assert!(
            empty.conforms_to(&ty, &s),
            "empty array conforms to any array type"
        );
        let mixed = Value::Array(vec![Value::Int(1), Value::Bool(false)]);
        assert!(!mixed.conforms_to(&ty, &s));
    }

    #[test]
    fn total_order_and_hash_for_floats() {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<Value, i32> = BTreeMap::new();
        map.insert(Value::Float(f64::NAN), 1);
        map.insert(Value::Float(1.0), 2);
        map.insert(Value::Float(-0.0), 3);
        map.insert(Value::Float(0.0), 4);
        // total_cmp distinguishes -0.0 and 0.0, keeps NaN stable.
        assert_eq!(map.len(), 4);
        assert_eq!(map.get(&Value::Float(1.0)), Some(&2));
    }

    #[test]
    fn equality_is_reflexive_for_every_variant() {
        // `Payload` answers "same allocation" with "equal" without looking
        // at the value; that needs `v == v` for every value, `NaN` too.
        let values = [
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Bool(false),
            Value::from("s"),
            Value::enum_value("Lot", "A"),
            Value::structure("S", [("f".to_owned(), Value::Float(f64::NAN))]),
            Value::Array(vec![Value::Float(f64::NAN), Value::Float(-0.0)]),
        ];
        for v in &values {
            assert_eq!(v, &v.clone(), "{v}");
            assert_eq!(v.cmp(v), Ordering::Equal, "{v}");
        }
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
    }

    #[test]
    fn cross_type_ordering_is_stable() {
        let mut values = [
            Value::Array(vec![]),
            Value::from("s"),
            Value::Int(1),
            Value::Bool(true),
            Value::Float(0.5),
        ];
        values.sort();
        let ranks: Vec<String> = values.iter().map(ToString::to_string).collect();
        assert_eq!(ranks, ["1", "0.5", "true", "\"s\"", "[]"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::enum_value("Lot", "A").to_string(), "Lot.A");
        let v = Value::structure("S", [("a".to_owned(), Value::Int(1))]);
        assert_eq!(v.to_string(), "S { a: 1 }");
        let arr: Value = vec![1i64, 2].into();
        assert_eq!(arr.to_string(), "[1, 2]");
    }

    #[test]
    fn value_codec_round_trips() {
        assert_eq!(i64::from_value(&42i64.into_value()), Some(42));
        assert_eq!(f64::from_value(&1.5f64.into_value()), Some(1.5));
        assert_eq!(bool::from_value(&true.into_value()), Some(true));
        assert_eq!(
            String::from_value(&"hi".to_owned().into_value()),
            Some("hi".to_owned())
        );
        let nested = vec![vec![1i64], vec![2, 3]];
        assert_eq!(
            Vec::<Vec<i64>>::from_value(&nested.clone().into_value()),
            Some(nested)
        );
        // Mismatches yield None, not panics.
        assert_eq!(i64::from_value(&Value::Bool(true)), None);
        assert_eq!(Vec::<i64>::from_value(&Value::Int(1)), None);
        assert_eq!(
            Vec::<i64>::from_value(&Value::Array(vec![Value::Int(1), Value::Bool(true)])),
            None,
            "one bad element poisons the whole array"
        );
        // Value is its own codec.
        let v = Value::enum_value("E", "A");
        assert_eq!(Value::from_value(&v), Some(v.clone()));
        assert_eq!(v.clone().into_value(), v);
    }

    #[test]
    fn serde_round_trip() {
        let v = Value::structure(
            "Availability",
            [
                (
                    "parkingLot".to_owned(),
                    Value::enum_value("ParkingLotEnum", "A22"),
                ),
                ("count".to_owned(), Value::Int(12)),
            ],
        );
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
