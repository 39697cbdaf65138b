//! Resolved types of the DiaSpec design language.
//!
//! After checking, every syntactic [`TypeRef`](crate::ast::TypeRef) is
//! resolved into a [`Type`], which distinguishes built-in scalar types from
//! user-declared structures and enumerations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fully resolved DiaSpec type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// Built-in `Integer` (64-bit signed at runtime).
    Integer,
    /// Built-in `Float` (64-bit IEEE-754 at runtime).
    Float,
    /// Built-in `Boolean`.
    Boolean,
    /// Built-in `String`.
    String,
    /// A user-declared enumeration, by name.
    Enum(String),
    /// A user-declared structure, by name.
    Struct(String),
    /// An array of the element type.
    Array(Box<Type>),
}

impl Type {
    /// Resolves the built-in type named `name`, if it is one.
    #[must_use]
    pub fn builtin(name: &str) -> Option<Type> {
        Some(match name {
            "Integer" => Type::Integer,
            "Float" => Type::Float,
            "Boolean" => Type::Boolean,
            "String" => Type::String,
            _ => return None,
        })
    }

    /// Wraps this type in an array.
    #[must_use]
    pub fn array(self) -> Type {
        Type::Array(Box::new(self))
    }

    /// The element type if this is an array.
    #[must_use]
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Array(elem) => Some(elem),
            _ => None,
        }
    }

    /// Whether values of this type may key a `grouped by` partition.
    ///
    /// Grouping requires stable equality/hashing, so every type except
    /// `Float` and arrays qualifies.
    #[must_use]
    pub fn is_groupable(&self) -> bool {
        !matches!(self, Type::Float | Type::Array(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Integer => f.write_str("Integer"),
            Type::Float => f.write_str("Float"),
            Type::Boolean => f.write_str("Boolean"),
            Type::String => f.write_str("String"),
            Type::Enum(name) | Type::Struct(name) => f.write_str(name),
            Type::Array(elem) => write!(f, "{elem}[]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup() {
        assert_eq!(Type::builtin("Integer"), Some(Type::Integer));
        assert_eq!(Type::builtin("Float"), Some(Type::Float));
        assert_eq!(Type::builtin("Boolean"), Some(Type::Boolean));
        assert_eq!(Type::builtin("String"), Some(Type::String));
        assert_eq!(Type::builtin("Availability"), None);
        assert_eq!(Type::builtin("integer"), None, "case sensitive");
    }

    #[test]
    fn display_matches_dsl_syntax() {
        assert_eq!(Type::Integer.to_string(), "Integer");
        assert_eq!(
            Type::Struct("Availability".into()).array().to_string(),
            "Availability[]"
        );
        assert_eq!(Type::Integer.array().array().to_string(), "Integer[][]");
    }

    #[test]
    fn groupability() {
        assert!(Type::Integer.is_groupable());
        assert!(Type::Boolean.is_groupable());
        assert!(Type::String.is_groupable());
        assert!(Type::Enum("E".into()).is_groupable());
        assert!(Type::Struct("S".into()).is_groupable());
        assert!(!Type::Float.is_groupable());
        assert!(!Type::Integer.array().is_groupable());
    }

    #[test]
    fn element_access() {
        let t = Type::Float.array();
        assert_eq!(t.element(), Some(&Type::Float));
        assert_eq!(Type::Float.element(), None);
    }

    #[test]
    fn serde_round_trip() {
        let t = Type::Struct("Availability".into()).array();
        let json = serde_json::to_string(&t).unwrap();
        let back: Type = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
