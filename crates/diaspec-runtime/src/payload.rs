//! Zero-copy payload handle: the unit of data the delivery pipeline moves.
//!
//! A [`Payload`] is a cheaply clonable, immutable handle to a [`Value`]
//! (`Arc<Value>` under the hood). Every value entering the pipeline —
//! source emissions, polled readings, context publications — is wrapped
//! exactly once at admission; from there, fan-out to N subscribers,
//! injected duplicates, retry re-sends, window accumulation, and MapReduce
//! chunk ingestion all clone the *handle* (one pointer bump) instead of
//! deep-copying the value.
//!
//! `Payload` dereferences to [`Value`], so read-only consumers
//! (`payload.as_int()`, `ValueCodec::from_value(&payload)`) are unchanged.
//! Payloads are immutable by construction: mutating a value requires
//! building a new one, which keeps shared fan-out sound.
//!
//! Immutability also makes handles interchangeable: two handles to the
//! same allocation are the same value, so equality and ordering answer
//! from the pointers when they can, and the two `Boolean` values — what
//! most sensors report — are wrapped once per process and shared by
//! every reading.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A shared, immutable handle to a [`Value`] flowing through the delivery
/// pipeline. Cloning is one atomic reference-count increment, independent
/// of the value's size.
///
/// Equality, ordering and hashing are those of the carried value. Two
/// handles to one allocation compare equal without looking at the value;
/// that shortcut is sound because [`Value`]'s `Eq` is total (floats
/// compare by [`f64::total_cmp`], so even `NaN` equals itself).
#[derive(Clone)]
pub struct Payload(Arc<Value>);

impl Payload {
    /// Wraps a value for pipeline transport: one allocation, except for
    /// [`Value::Bool`], whose two values have one process-wide handle each.
    #[must_use]
    pub fn new(value: Value) -> Self {
        match value {
            Value::Bool(b) => {
                static BOOLS: OnceLock<[Payload; 2]> = OnceLock::new();
                let bools =
                    BOOLS.get_or_init(|| [false, true].map(|b| Payload(Arc::new(Value::Bool(b)))));
                bools[usize::from(b)].clone()
            }
            other => Payload(Arc::new(other)),
        }
    }

    /// Read access to the carried value.
    #[must_use]
    pub fn value(&self) -> &Value {
        &self.0
    }

    /// Extracts the value, cloning only if the payload is still shared.
    #[must_use]
    pub fn into_value(self) -> Value {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }

    /// How many handles (this one included) currently share the value.
    /// Diagnostic only — the count is racy under parallel executors, and
    /// for an interned value (`Boolean`) it is process-wide: it counts
    /// every handle to that value anywhere, not the clones of this one.
    #[must_use]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for Payload {}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Payload {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Deref for Payload {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.0
    }
}

impl AsRef<Value> for Payload {
    fn as_ref(&self) -> &Value {
        &self.0
    }
}

impl std::borrow::Borrow<Value> for Payload {
    fn borrow(&self) -> &Value {
        &self.0
    }
}

impl From<Value> for Payload {
    fn from(value: Value) -> Self {
        Payload::new(value)
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq<Value> for Payload {
    fn eq(&self, other: &Value) -> bool {
        *self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_value() {
        let payload = Payload::new(Value::Str("shared".into()));
        let copy = payload.clone();
        assert_eq!(payload, copy);
        assert_eq!(payload.handle_count(), 2);
        assert!(std::ptr::eq(payload.value(), copy.value()));
    }

    #[test]
    fn derefs_to_value_accessors() {
        let payload = Payload::from(Value::Int(7));
        assert_eq!(payload.as_int(), Some(7));
        assert_eq!(payload.to_string(), "7");
        assert_eq!(payload, Value::Int(7));
    }

    #[test]
    fn into_value_avoids_cloning_when_unshared() {
        let payload = Payload::new(Value::Int(1));
        assert_eq!(payload.into_value(), Value::Int(1));
        let shared = Payload::new(Value::Int(2));
        let keep = shared.clone();
        assert_eq!(shared.into_value(), Value::Int(2));
        assert_eq!(keep.as_int(), Some(2));
    }

    #[test]
    fn ordering_and_hash_follow_the_value() {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<Payload, i64> = BTreeMap::new();
        map.insert(Payload::from(Value::Int(2)), 2);
        map.insert(Payload::from(Value::Int(1)), 1);
        let keys: Vec<i64> = map.keys().filter_map(|p| p.as_int()).collect();
        assert_eq!(keys, vec![1, 2]);
        // Borrow<Value> allows lookups by plain value.
        assert_eq!(map.get(&Value::Int(2)), Some(&2));
    }

    fn hash_of(payload: &Payload) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut hasher = DefaultHasher::new();
        payload.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn booleans_share_one_handle_and_still_compare_by_value() {
        for b in [false, true] {
            let interned = Payload::new(Value::Bool(b));
            let again = Payload::from(Value::Bool(b));
            assert!(std::ptr::eq(interned.value(), again.value()));
            // A handle built around the interner is a different
            // allocation and the same payload.
            let separate = Payload(Arc::new(Value::Bool(b)));
            assert!(!std::ptr::eq(interned.value(), separate.value()));
            assert_eq!(interned, separate);
            assert_eq!(interned.cmp(&separate), Ordering::Equal);
            assert_eq!(hash_of(&interned), hash_of(&separate));
            assert_eq!(interned.clone().into_value(), Value::Bool(b));
        }
        assert!(Payload::new(Value::Bool(false)) < Payload::new(Value::Bool(true)));
        // Other scalars are not interned.
        let one = Payload::new(Value::Int(1));
        assert!(!std::ptr::eq(
            one.value(),
            Payload::new(Value::Int(1)).value()
        ));
    }

    #[test]
    fn pointer_fast_path_agrees_with_value_comparison() {
        let values = [
            Value::Int(-3),
            Value::Int(7),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Bool(false),
            Value::Bool(true),
            Value::from("a"),
            Value::from("b"),
            Value::enum_value("ParkingLotEnum", "A22"),
            Value::enum_value("ParkingLotEnum", "B16"),
            Value::structure("S", [("f".to_owned(), Value::Float(f64::NAN))]),
            Value::Array(vec![Value::Int(1), Value::Float(-0.0)]),
            Value::Array(vec![]),
        ];
        for a in &values {
            // Same allocation: equal by pointer, as the value is to itself.
            let shared = Payload::new(a.clone());
            let alias = shared.clone();
            assert!(std::ptr::eq(shared.value(), alias.value()));
            assert_eq!(shared == alias, a == a, "{a}");
            assert_eq!(shared.cmp(&alias), a.cmp(a), "{a}");
            assert_eq!(hash_of(&shared), hash_of(&alias), "{a}");
            for b in &values {
                // Separate allocations: decided by the values.
                let other = Payload(Arc::new(b.clone()));
                assert_eq!(shared == other, a == b, "{a} vs {b}");
                assert_eq!(shared.cmp(&other), a.cmp(b), "{a} vs {b}");
                assert_eq!(shared.partial_cmp(&other), a.partial_cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn payload_is_pointer_sized() {
        assert_eq!(std::mem::size_of::<Payload>(), std::mem::size_of::<usize>());
    }
}
