//! Component logic traits: how application code plugs into the runtime.
//!
//! The paper's generated programming frameworks employ *inversion of
//! control* (§V): the developer subclasses generated abstract component
//! classes and the runtime calls them. The Rust equivalent is implementing
//! these traits and registering the implementations with the
//! [`Orchestrator`](crate::engine::Orchestrator); the engine then activates
//! them according to the declared interaction contracts.
//!
//! - [`ContextLogic`] — the compute layer, activated by source events,
//!   context publications, periodic batches, or on-demand pulls;
//! - [`ControllerLogic`] — the control layer, activated by context
//!   publications, issuing device actions through a discover facade;
//! - [`MapReduceLogic`] — the Map/Reduce phases of a `grouped by ... with
//!   map ... reduce ...` context, executed by the engine on the
//!   `diaspec-mapreduce` substrate.

use crate::clock::SimTime;
use crate::engine::{ContextApi, ControllerApi};
use crate::entity::EntityId;
use crate::error::ComponentError;
use crate::payload::Payload;
use crate::registry::PolledReading;
use crate::value::Value;
use std::collections::BTreeMap;

/// One periodic batch delivered to a context (paper §IV.2: "every 10
/// minutes, all presence sensor statuses of all parking lots are
/// delivered").
#[derive(Debug, Clone, PartialEq)]
pub struct BatchData {
    /// The polled device type.
    pub device_type: String,
    /// The polled source.
    pub source: String,
    /// Raw readings in deterministic order: one poll yields the device
    /// family's exact member types in name order, each type's entities in
    /// id order (so ids interleave across a subtype, they are not globally
    /// sorted); an `every <T>` window is the concatenation of its polls in
    /// poll order. Readings lost in transport are absent, and an injected
    /// duplicate sits next to its original.
    pub readings: Vec<PolledReading>,
    /// Readings grouped by the `grouped by` attribute value, when the
    /// activation declares grouping. Keys and readings are shared
    /// [`Payload`] handles into the batch — grouping never deep-copies a
    /// reading (a `&Payload` dereferences to [`Value`] for consumers).
    pub grouped: Option<BTreeMap<Payload, Vec<Payload>>>,
    /// Result of the declared MapReduce phases, when `with map ... reduce
    /// ...` is present: final value per group key.
    pub reduced: Option<BTreeMap<Value, Value>>,
    /// Task-level coverage accounting of the MapReduce execution that
    /// produced [`BatchData::reduced`]. `Some` exactly when `reduced` is;
    /// a degraded batch reports a fraction below 1 here, so context logic
    /// can weigh partial results.
    pub coverage: Option<diaspec_mapreduce::CoverageReport>,
    /// The aggregation window in milliseconds, when `every <T>` is present.
    pub window_ms: Option<u64>,
}

/// The stimulus delivered to a [`ContextLogic`] activation.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextActivation<'a> {
    /// Event-driven delivery of one device-source emission
    /// (`when provided src from Dev`).
    SourceEvent {
        /// Declared device type of the emitting entity.
        device_type: &'a str,
        /// The emitting entity.
        entity: &'a EntityId,
        /// The emitting source.
        source: &'a str,
        /// The emitted value.
        value: &'a Value,
        /// The index value, for `indexed by` sources (e.g. a question id).
        index: Option<&'a Value>,
    },
    /// Event-driven delivery of an upstream context publication
    /// (`when provided Ctx`).
    ContextEvent {
        /// The publishing context.
        context: &'a str,
        /// The published value.
        value: &'a Value,
    },
    /// A periodic batch (`when periodic ... <T>`).
    Batch(&'a BatchData),
    /// An on-demand computation (`when required`), triggered by another
    /// component's `get`.
    OnDemand,
}

/// Compute-layer logic of a declared context.
///
/// Return `Ok(Some(value))` to publish (subject to the activation's
/// declared publish mode), `Ok(None)` to stay silent. The engine verifies
/// the design contract: an `always publish` activation must return a
/// value, a `no publish` activation must not, and published values must
/// conform to the declared output type.
pub trait ContextLogic: Send {
    /// Handles one activation.
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`ComponentError`]; the engine
    /// records them and keeps orchestrating.
    fn activate(
        &mut self,
        api: &mut ContextApi<'_>,
        activation: ContextActivation<'_>,
    ) -> Result<Option<Value>, ComponentError>;

    /// Called after the runtime re-binds `replacement` for a lost entity
    /// `lost` whose device type this context's design references. The
    /// default implementation does nothing; override to re-prime state
    /// tied to the lost entity.
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`ComponentError`]; the engine
    /// records them and keeps orchestrating.
    fn on_recovery(
        &mut self,
        api: &mut ContextApi<'_>,
        lost: &EntityId,
        replacement: &EntityId,
    ) -> Result<(), ComponentError> {
        let _ = (api, lost, replacement);
        Ok(())
    }
}

impl<F> ContextLogic for F
where
    F: FnMut(&mut ContextApi<'_>, ContextActivation<'_>) -> Result<Option<Value>, ComponentError>
        + Send,
{
    fn activate(
        &mut self,
        api: &mut ContextApi<'_>,
        activation: ContextActivation<'_>,
    ) -> Result<Option<Value>, ComponentError> {
        self(api, activation)
    }
}

/// Control-layer logic of a declared controller.
pub trait ControllerLogic: Send {
    /// Handles one publication of a subscribed context.
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`ComponentError`]; the engine
    /// records them and keeps orchestrating.
    fn on_context(
        &mut self,
        api: &mut ControllerApi<'_>,
        context: &str,
        value: &Value,
    ) -> Result<(), ComponentError>;

    /// Called after the runtime re-binds `replacement` for a lost entity
    /// `lost` whose device type this controller's design actuates. The
    /// default implementation does nothing; override to re-issue state
    /// the lost actuator held (e.g. a setpoint).
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`ComponentError`]; the engine
    /// records them and keeps orchestrating.
    fn on_recovery(
        &mut self,
        api: &mut ControllerApi<'_>,
        lost: &EntityId,
        replacement: &EntityId,
    ) -> Result<(), ComponentError> {
        let _ = (api, lost, replacement);
        Ok(())
    }
}

impl<F> ControllerLogic for F
where
    F: FnMut(&mut ControllerApi<'_>, &str, &Value) -> Result<(), ComponentError> + Send,
{
    fn on_context(
        &mut self,
        api: &mut ControllerApi<'_>,
        context: &str,
        value: &Value,
    ) -> Result<(), ComponentError> {
        self(api, context, value)
    }
}

/// Map and Reduce phases of a `grouped by ... with map as X reduce as Y`
/// context (paper Figure 10), over dynamic values.
///
/// The engine partitions the periodic batch by the grouping attribute and
/// feeds each `(group, reading)` pair to [`map`](Self::map); intermediate
/// records are grouped by their emitted key and folded by
/// [`reduce`](Self::reduce). Implementations must be stateless
/// (`Send + Sync`) because the parallel executor shares them across
/// worker threads.
pub trait MapReduceLogic: Send + Sync {
    /// The Map phase: processes one reading, emitting intermediate records
    /// through `emit(key, value)`.
    fn map(&self, group: &Value, reading: &Value, emit: &mut dyn FnMut(Value, Value));

    /// The Reduce phase: folds all intermediate values for `key` into one
    /// final value.
    fn reduce(&self, key: &Value, values: &[Value]) -> Value;
}

/// Timestamped record of a contained error, retrievable via
/// [`Orchestrator::drain_errors`](crate::engine::Orchestrator::drain_errors).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainedError {
    /// Simulation time at which the error occurred.
    pub at: SimTime,
    /// The error.
    pub error: crate::error::RuntimeError,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_data_is_plain_data() {
        let batch = BatchData {
            device_type: "PresenceSensor".into(),
            source: "presence".into(),
            readings: vec![],
            grouped: None,
            reduced: None,
            coverage: None,
            window_ms: Some(1000),
        };
        let clone = batch.clone();
        assert_eq!(batch, clone);
        assert!(format!("{batch:?}").contains("PresenceSensor"));
    }

    #[test]
    fn activation_variants_compare() {
        let a = ContextActivation::OnDemand;
        let b = ContextActivation::OnDemand;
        assert_eq!(a, b);
        let v = Value::Int(1);
        let c = ContextActivation::ContextEvent {
            context: "A",
            value: &v,
        };
        assert_ne!(a, c);
    }
}
