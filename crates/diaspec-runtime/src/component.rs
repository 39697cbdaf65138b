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
/// Each delivered reading is in exactly one place. An ungrouped
/// activation's readings are all in [`BatchData::readings`]. A grouped
/// activation's readings that carry a grouping value are in
/// [`BatchData::grouped`], as 16-byte [`Record`]s (a group id and the
/// value handle); only a reading of a member type without the attribute
/// stays in `readings`.
///
/// Two orders describe one batch. Batch order is the poll's family
/// order, polls back to back in a window: `readings` keeps it, and so do
/// [`Groups::records`]. A MapReduce context's Map phase reads the
/// records in that order, so task chunks do not depend on how the batch
/// is grouped. Group order is ascending key order, each group's readings
/// in batch order: [`Groups::iter`]. Readings of different member types
/// of a subtype family that carry equal values share one group.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchData {
    /// The polled device type.
    pub device_type: String,
    /// The polled source.
    pub source: String,
    /// The readings that carry no grouping value — for an ungrouped
    /// activation, every reading — in deterministic order: one poll
    /// yields the device family's exact member types in name order, each
    /// type's entities in id order (so ids interleave across a subtype,
    /// they are not globally sorted); an `every <T>` window is the
    /// concatenation of its polls in poll order. Readings lost in
    /// transport are absent, and an injected duplicate sits next to its
    /// original.
    pub readings: Vec<PolledReading>,
    /// The readings that carry a grouping value, when the activation
    /// declares grouping: a [`Groups`] that yields them in batch order
    /// ([`Groups::records`]) or each group's key and its readings, keys
    /// ascending ([`Groups::iter`]). Keys and readings are shared
    /// [`Payload`] handles — grouping never deep-copies a reading (a
    /// `&Payload` dereferences to [`Value`] for consumers). A grouped
    /// reading does not carry its entity.
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

/// One grouped reading as a batch holds it from the poll to the handler:
/// its group's id in the batch and its value handle, 16 bytes. The group
/// ids and record positions of a batch are `u32`s: a batch holds fewer
/// than 2³² records (that many would be a 64 GiB window).
#[derive(Debug, Clone)]
pub struct Record {
    group: u32,
    value: Payload,
}

/// The address of a handle's value. While a batch holds a canonical
/// handle, no other value can take its address, so the address names
/// the handle's (exact type, attribute, value).
fn address(handle: &Payload) -> usize {
    std::ptr::from_ref::<Value>(handle.value()) as usize
}

/// A grouped activation's readings while they are gathered: the poll
/// appends each delivered reading as one [`Record`], an `every` window
/// keeps appending, and [`Grouping::seal`] indexes the records once, at
/// the flush.
///
/// A record's group id comes from its canonical handle: the append
/// compares the handle's address with the previous record's, and only a
/// change looks it up. A handle seen for the first time joins the group
/// of an equal value, which merges the handles of a subtype family's
/// member types and those of a value rebound between the polls of one
/// window.
#[derive(Debug, Clone, Default)]
struct Grouping {
    /// Every record, in batch order.
    records: Vec<Record>,
    /// The first handle of each group, by group id.
    keys: Vec<Payload>,
    /// Records per group id.
    counts: Vec<u32>,
    /// Every handle seen, by address: the handle (held, so that its
    /// address stays its own while the batch is open) and its group id.
    by_handle: BTreeMap<usize, (Payload, u32)>,
    /// Group id by value, keys ascending.
    by_value: BTreeMap<Payload, u32>,
    /// The previous record's handle address and group id.
    last: Option<(usize, u32)>,
}

impl Grouping {
    /// Appends one reading of the group whose canonical handle is `key`.
    fn push(&mut self, key: &Payload, value: Payload) {
        let at = address(key);
        let group = match self.last {
            Some((hit, group)) if hit == at => group,
            _ => {
                let group = self.group_of(key, at);
                self.last = Some((at, group));
                group
            }
        };
        self.counts[group as usize] += 1;
        self.records.push(Record { group, value });
    }

    /// The group id of `key`, whose address is `at`.
    fn group_of(&mut self, key: &Payload, at: usize) -> u32 {
        if let Some(&(_, group)) = self.by_handle.get(&at) {
            return group;
        }
        let fresh = self.keys.len() as u32;
        let group = *self.by_value.entry(key.clone()).or_insert(fresh);
        if group == fresh {
            self.keys.push(key.clone());
            self.counts.push(0);
        }
        self.by_handle.insert(at, (key.clone(), group));
        group
    }

    /// Indexes the records in group order: one counting pass over their
    /// positions, the keys sorted by value (they are kept sorted).
    fn seal(self) -> Groups {
        let Grouping {
            records,
            keys,
            counts,
            by_value,
            ..
        } = self;
        // Positions and group ids (there are no more groups than records)
        // are `u32`s; the index below would be wrong past them.
        assert!(
            u32::try_from(records.len()).is_ok(),
            "a batch holds fewer than 2^32 records"
        );
        // `next[id]` becomes the position, in `order`, of the id's next
        // record.
        let mut next = counts;
        let mut sorted = Vec::with_capacity(by_value.len());
        let mut ends = Vec::with_capacity(by_value.len());
        let mut total = 0;
        for id in by_value.into_values() {
            let count = next[id as usize];
            next[id as usize] = total;
            total += count;
            sorted.push(id);
            ends.push(total);
        }
        let mut order = vec![0u32; records.len()];
        for (at, record) in (0u32..).zip(&records) {
            let slot = &mut next[record.group as usize];
            order[*slot as usize] = at;
            *slot += 1;
        }
        Groups {
            records,
            keys,
            sorted,
            ends,
            order,
        }
    }
}

/// A periodic batch between its poll and its handler: what an `every`
/// window buffers and a batch delivery carries. A reading with a
/// grouping value is appended as a [`Record`]; one without (every
/// reading of an ungrouped activation) keeps its entity.
#[derive(Debug, Clone, Default)]
pub(crate) struct Gathered {
    readings: Vec<PolledReading>,
    grouping: Option<Grouping>,
}

impl Gathered {
    /// An empty batch of an activation that groups or does not.
    pub(crate) fn new(grouped: bool) -> Self {
        Gathered {
            readings: Vec::new(),
            grouping: grouped.then(Grouping::default),
        }
    }

    /// Moves the batch out, leaving an empty one of the same kind.
    pub(crate) fn take(&mut self) -> Self {
        let empty = Gathered::new(self.grouping.is_some());
        std::mem::replace(self, empty)
    }

    /// Sizes an empty batch for `readings` readings at once instead of
    /// doubling up to them. A reservation the allocator refuses is not an
    /// error; the batch then grows as it fills.
    pub(crate) fn reserve_once(&mut self, readings: usize) {
        match &mut self.grouping {
            Some(grouping) if grouping.records.capacity() == 0 => {
                let _ = grouping.records.try_reserve_exact(readings);
            }
            None if self.readings.capacity() == 0 => {
                let _ = self.readings.try_reserve_exact(readings);
            }
            _ => {}
        }
    }

    /// Appends one delivered reading.
    pub(crate) fn push(&mut self, reading: PolledReading) {
        match (&mut self.grouping, &reading.group) {
            (Some(grouping), Some(key)) => grouping.push(key, reading.value),
            _ => self.readings.push(reading),
        }
    }

    /// The readings without a grouping value, and the grouped ones
    /// indexed, when the activation groups.
    pub(crate) fn seal(self) -> (Vec<PolledReading>, Option<Groups>) {
        (self.readings, self.grouping.map(Grouping::seal))
    }
}

/// The `grouped by` readings of a [`BatchData`].
///
/// `records` holds every grouped reading in batch order, one 16-byte
/// [`Record`] each; `keys` holds each group's key handle by group id.
/// The group-order index is one `u32` position per record: `sorted`
/// lists the group ids in ascending key order, and the `g`-th group's
/// records are at `order[ends[g - 1]..ends[g]]`. Sealing a batch of any
/// size makes a number of allocator calls that depends on its groups,
/// not on its readings.
///
/// Iterating yields `(&Payload, Group)`: a key and its readings in
/// batch order. Two `Groups` are equal when their records, in batch
/// order, carry equal keys and values.
#[derive(Clone, Default)]
pub struct Groups {
    records: Vec<Record>,
    keys: Vec<Payload>,
    sorted: Vec<u32>,
    ends: Vec<u32>,
    order: Vec<u32>,
}

impl Groups {
    /// Groups the readings that carry a grouping value, as a poll does:
    /// each is appended in turn, then the batch is sealed.
    #[must_use]
    pub fn of(readings: &[PolledReading]) -> Self {
        let mut grouping = Grouping::default();
        for reading in readings {
            if let Some(key) = &reading.group {
                grouping.push(key, reading.value.clone());
            }
        }
        grouping.seal()
    }

    /// The groups, keys ascending, each with its readings in batch order.
    #[must_use]
    pub fn iter(&self) -> GroupsIter<'_> {
        GroupsIter {
            groups: self,
            sorted: self.sorted.iter(),
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Every grouped reading in batch order, as its group's key and its
    /// value.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (&Payload, &Payload)> + Clone + '_ {
        self.records
            .iter()
            .map(|record| (&self.keys[record.group as usize], &record.value))
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no reading carried a grouping value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

impl PartialEq for Groups {
    fn eq(&self, other: &Self) -> bool {
        self.records().eq(other.records())
    }
}

impl fmt::Debug for Groups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Groups {
    type Item = (&'a Payload, Group<'a>);
    type IntoIter = GroupsIter<'a>;

    fn into_iter(self) -> GroupsIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Groups`] view, from [`Groups::iter`].
#[derive(Debug, Clone)]
pub struct GroupsIter<'a> {
    groups: &'a Groups,
    sorted: std::slice::Iter<'a, u32>,
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for GroupsIter<'a> {
    type Item = (&'a Payload, Group<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let id = *self.sorted.next()?;
        let end = *self.ends.next()? as usize;
        let group = Group {
            records: &self.groups.records,
            at: &self.groups.order[self.start..end],
        };
        self.start = end;
        Some((&self.groups.keys[id as usize], group))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.sorted.size_hint()
    }
}

impl ExactSizeIterator for GroupsIter<'_> {}

/// One group's readings in batch order, from [`Groups::iter`].
#[derive(Clone, Copy)]
pub struct Group<'a> {
    records: &'a [Record],
    at: &'a [u32],
}

impl<'a> Group<'a> {
    /// The readings, in batch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Payload> + Clone + 'a {
        let records = self.records;
        self.at.iter().map(move |&at| &records[at as usize].value)
    }

    /// Number of readings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the group has no readings (a yielded group never does).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }
}

impl fmt::Debug for Group<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
