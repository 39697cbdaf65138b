//! Entities: concrete instances of declared devices.
//!
//! A DiaSpec `device` declaration abstracts over heterogeneous hardware or
//! services (paper §III). At runtime, each physical/simulated unit is an
//! *entity*: it has a unique [`EntityId`], a device type, attribute values
//! (used for discovery), and a driver implementing the [`DeviceInstance`]
//! trait.
//!
//! Paper §IV requires every concrete device to support all three data
//! delivery models. In this runtime:
//! - **query-driven** delivery calls [`DeviceInstance::query`] directly;
//! - **periodic** delivery is the engine polling [`DeviceInstance::query`]
//!   on the declared period and batching the results;
//! - **event-driven** delivery happens when a simulation process *emits* a
//!   source value for the entity (see `process` module).
//!
//! A driver therefore only implements `query` and `invoke`; the engine
//! derives the rest, exactly as the paper's generated device-side framework
//! does.

use crate::error::DeviceError;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Unique identifier of a bound entity, e.g. `"presence-A22-17"`.
///
/// The id is a shared string: cloning is one reference-count increment,
/// so the registry's map key, its discovery index sets, queued events and
/// every [`PolledReading`](crate::registry::PolledReading) of an entity
/// point at one allocation. Equality, ordering and hashing are those of
/// the string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(Arc<str>);

impl EntityId {
    /// Creates an entity id.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        EntityId(Arc::from(id.into()))
    }

    /// The id as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EntityId {
    fn from(s: &str) -> Self {
        EntityId(Arc::from(s))
    }
}

impl From<String> for EntityId {
    fn from(s: String) -> Self {
        EntityId::new(s)
    }
}

impl AsRef<str> for EntityId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Attribute values of an entity, keyed by attribute name.
///
/// Attribute values are set when the entity is bound (paper §IV activity 1:
/// "when sensors are deployed ... each sensor needs to be registered and
/// attribute values defined").
pub type AttributeMap = BTreeMap<String, Value>;

/// When an entity was bound to the infrastructure (paper §IV: "entity
/// binding can occur at configuration time, deployment time, launch time,
/// or runtime").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BindingTime {
    /// Bound while assembling the application configuration.
    Configuration,
    /// Bound while deploying the infrastructure.
    Deployment,
    /// Bound when the application launched.
    Launch,
    /// Discovered and bound while the application was already running.
    Runtime,
}

impl fmt::Display for BindingTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BindingTime::Configuration => "configuration",
            BindingTime::Deployment => "deployment",
            BindingTime::Launch => "launch",
            BindingTime::Runtime => "runtime",
        })
    }
}

/// A concrete device driver.
///
/// Implementations wrap real hardware, a remote service, or — in this
/// repository — a simulated environment model. The engine calls `query`
/// for query-driven and periodic delivery and `invoke` for actuation.
///
/// Implementations should be cheap to call: in large-scale runs the engine
/// polls tens of thousands of entities per period.
pub trait DeviceInstance: Send {
    /// Reads the current value of `source`.
    ///
    /// `now_ms` is the current simulation time, letting stateless drivers
    /// compute time-dependent readings.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] if the underlying entity cannot produce
    /// the reading (the engine then applies the device's `@error` policy).
    fn query(&mut self, source: &str, now_ms: u64) -> Result<Value, DeviceError>;

    /// Performs `action` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] if the actuation fails.
    fn invoke(&mut self, action: &str, args: &[Value], now_ms: u64) -> Result<(), DeviceError>;
}

/// Blanket implementation so closures can serve as simple one-source
/// read-only drivers in tests and examples.
impl<F> DeviceInstance for F
where
    F: FnMut(&str, u64) -> Result<Value, DeviceError> + Send,
{
    fn query(&mut self, source: &str, now_ms: u64) -> Result<Value, DeviceError> {
        self(source, now_ms)
    }

    fn invoke(&mut self, action: &str, _args: &[Value], _now_ms: u64) -> Result<(), DeviceError> {
        Err(DeviceError::new(
            "<closure driver>",
            action,
            "closure drivers do not support actuation",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_id_conversions() {
        let id: EntityId = "sensor-1".into();
        assert_eq!(id.as_str(), "sensor-1");
        assert_eq!(id.to_string(), "sensor-1");
        assert_eq!(id.as_ref(), "sensor-1");
        let id2 = EntityId::from(String::from("sensor-1"));
        assert_eq!(id, id2);
        assert_eq!(format!("{id:?}"), r#"EntityId("sensor-1")"#);
    }

    #[test]
    fn entity_id_clones_share_one_string_and_compare_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let id = EntityId::new("sensor-1");
        let copy = id.clone();
        assert!(std::ptr::eq(id.as_str(), copy.as_str()));
        // A separately built id is a different allocation but the same id.
        let other = EntityId::new(String::from("sensor-1"));
        assert!(!std::ptr::eq(id.as_str(), other.as_str()));
        assert_eq!(id, other);
        assert_eq!(id.cmp(&other), std::cmp::Ordering::Equal);
        let hash = |id: &EntityId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&id), hash(&other));
        assert!(EntityId::new("a-10") < EntityId::new("a-9"));
    }

    #[test]
    fn binding_time_ordering_matches_lifecycle() {
        assert!(BindingTime::Configuration < BindingTime::Deployment);
        assert!(BindingTime::Deployment < BindingTime::Launch);
        assert!(BindingTime::Launch < BindingTime::Runtime);
        assert_eq!(BindingTime::Runtime.to_string(), "runtime");
    }

    #[test]
    fn closure_driver_queries_but_does_not_actuate() {
        let mut driver = |source: &str, now: u64| -> Result<Value, DeviceError> {
            assert_eq!(source, "tick");
            Ok(Value::Int(now as i64))
        };
        assert_eq!(driver.query("tick", 5).unwrap(), Value::Int(5));
        assert!(driver.invoke("anything", &[], 5).is_err());
    }
}
