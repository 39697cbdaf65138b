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
use std::fmt;

/// One periodic batch delivered to a context (paper §IV.2: "every 10
/// minutes, all presence sensor statuses of all parking lots are
/// delivered").
///
/// Two orders describe one batch. [`BatchData::readings`] is batch
/// order: the poll's family order, polls back to back in a window. A
/// MapReduce context's Map phase reads that order, so task chunks do not
/// depend on how the batch is grouped. [`BatchData::grouped`] is group
/// order: one flat array of every reading that has a grouping value,
/// group after group in ascending key order, and one end offset per
/// group. Within a group the readings keep batch order. Readings of
/// different member types of a subtype family that carry equal values
/// share one group; a member type without the attribute contributes to
/// `readings` only.
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
    /// activation declares grouping: a [`Groups`] view that yields each
    /// group's key and its readings as `(&Payload, &[Payload])`, keys
    /// ascending, each group's readings in batch order. Keys and
    /// readings are shared [`Payload`] handles into the batch — grouping
    /// never deep-copies a reading (a `&Payload` dereferences to
    /// [`Value`] for consumers).
    pub grouped: Option<Groups>,
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

/// The `grouped by` partition of a [`BatchData`], laid out flat.
///
/// `keys` holds the distinct grouping values in ascending order;
/// `values` holds every grouped reading, group after group; `ends[g]` is
/// one past group `g`'s last reading. A batch of any size is three
/// vectors, sized exactly, so grouping it makes a number of allocator
/// calls that depends on its groups, not on its readings.
///
/// Iterating yields `(&Payload, &[Payload])`: a key and its readings in
/// batch order.
#[derive(Clone, Default, PartialEq)]
pub struct Groups {
    keys: Vec<Payload>,
    ends: Vec<usize>,
    values: Vec<Payload>,
}

impl Groups {
    /// Groups the readings that carry a grouping value.
    ///
    /// The registry hands out one canonical handle per (exact type,
    /// attribute, value), so a handle names its group: the pass compares
    /// each reading's handle with the previous reading's, and only a
    /// change looks the handle up. A handle seen for the first time
    /// joins the group of an equal value, which merges the handles of a
    /// subtype family's member types and those of a value rebound
    /// between the polls of one window. A counting pass then walks the
    /// readings again, the same way, and places each in its group's
    /// slice.
    #[must_use]
    pub fn of(readings: &[PolledReading]) -> Self {
        // A small id per distinct value, in first-seen order.
        let mut by_handle: BTreeMap<*const Value, u32> = BTreeMap::new();
        let mut by_value: BTreeMap<&Value, u32> = BTreeMap::new();
        let mut firsts: Vec<&Payload> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut last: Option<(*const Value, u32)> = None;
        for key in readings.iter().filter_map(|r| r.group.as_ref()) {
            let handle: *const Value = key.value();
            let id = match last {
                Some((hit, id)) if hit == handle => id,
                _ => {
                    let id = *by_handle.entry(handle).or_insert_with(|| {
                        *by_value.entry(key.value()).or_insert_with(|| {
                            firsts.push(key);
                            counts.push(0);
                            u32::try_from(counts.len() - 1).expect("fewer groups than readings")
                        })
                    });
                    last = Some((handle, id));
                    id
                }
            };
            counts[id as usize] += 1;
        }

        // Group order is key order; `next[id]` becomes the slot of the
        // id's next reading.
        let mut next = counts;
        let mut keys = Vec::with_capacity(firsts.len());
        let mut ends = Vec::with_capacity(firsts.len());
        let mut total = 0;
        for &id in by_value.values() {
            let count = next[id as usize];
            next[id as usize] = total;
            total += count;
            keys.push(firsts[id as usize].clone());
            ends.push(total);
        }
        // Every handle is in `by_handle` now.
        let mut order = vec![0u32; total];
        let mut last: Option<(*const Value, u32)> = None;
        for (at, reading) in readings.iter().enumerate() {
            let Some(key) = &reading.group else { continue };
            let handle: *const Value = key.value();
            let id = match last {
                Some((hit, id)) if hit == handle => id,
                _ => by_handle[&handle],
            };
            last = Some((handle, id));
            order[next[id as usize]] = u32::try_from(at).expect("a batch fits u32 positions");
            next[id as usize] += 1;
        }
        let values = order
            .iter()
            .map(|&at| readings[at as usize].value.clone())
            .collect();
        Groups { keys, ends, values }
    }

    /// The groups, keys ascending, each with its readings in batch order.
    #[must_use]
    pub fn iter(&self) -> GroupsIter<'_> {
        GroupsIter {
            keys: self.keys.iter(),
            ends: self.ends.iter(),
            values: &self.values,
            start: 0,
        }
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no reading carried a grouping value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl fmt::Debug for Groups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Groups {
    type Item = (&'a Payload, &'a [Payload]);
    type IntoIter = GroupsIter<'a>;

    fn into_iter(self) -> GroupsIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Groups`] view, from [`Groups::iter`].
#[derive(Debug, Clone)]
pub struct GroupsIter<'a> {
    keys: std::slice::Iter<'a, Payload>,
    ends: std::slice::Iter<'a, usize>,
    values: &'a [Payload],
    start: usize,
}

impl<'a> Iterator for GroupsIter<'a> {
    type Item = (&'a Payload, &'a [Payload]);

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.keys.next()?;
        let end = *self.ends.next()?;
        let group = &self.values[self.start..end];
        self.start = end;
        Some((key, group))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl ExactSizeIterator for GroupsIter<'_> {}

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
/// The engine feeds each reading that has a grouping value to
/// [`map`](Self::map) as a `(group, reading)` pair, in batch order
/// ([`BatchData::readings`]); intermediate
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
