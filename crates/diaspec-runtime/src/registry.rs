//! Entity registry: binding and attribute-based discovery.
//!
//! This implements the paper's first IoT activity, *binding entities*
//! (§IV): concrete entities register against a declared device type with
//! attribute values (e.g. a presence sensor's `parkingLot`), at any of the
//! four binding times, and applications discover them by device type —
//! including subtype matching through `extends` — filtered by attribute
//! values, as in the generated `discover.parkingEntrancePanels()
//! .whereLocation(...)` facade of Figure 11.
//!
//! The registry also routes query-driven reads and actuations to drivers,
//! applying the device's declared `@error` policy (`retry`, `failover`,
//! `ignore`, `escalate`) on driver failures.
//!
//! # One entity slab
//!
//! Bound records live in one dense slab addressed by a `u32` slot (in
//! fixed pages, so it grows without moving a record); a freed slot is
//! reused by the next bind, so the slab is as long as the peak live
//! count. One id → slot map serves the by-id entry points
//! (`query_source`, `invoke`, `unbind`, …); the exact-type index keeps
//! each type's ids with their slots in id order. [`Registry::new`]
//! resolves every declared device type once — its name, declaration,
//! `@error` policy and family — into a table indexed by type id. A
//! periodic [`Registry::poll`] therefore resolves the source and the
//! grouping attribute once per member type and walks the family's slots,
//! with no id lookup per reading; it shares one per-record read with
//! [`Registry::query_source`].

use crate::entity::{AttributeMap, BindingTime, DeviceInstance, EntityId};
use crate::error::{DeviceError, RuntimeError};
use crate::names::Names;
use crate::payload::Payload;
use crate::value::Value;
use diaspec_core::model::{CheckedSpec, Device};
pub use diaspec_core::model::{ErrorPolicy, PolicyKind};
use diaspec_core::types::Type;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

mod indexes;

use indexes::Indexes;

/// A bound entity's public record (driver excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityInfo {
    /// The entity's unique id.
    pub id: EntityId,
    /// The declared device type this entity implements (one shared name
    /// per declared type).
    pub device_type: Arc<str>,
    /// Attribute values fixed at binding.
    pub attributes: AttributeMap,
    /// When in the lifecycle the entity was bound.
    pub bound_at: BindingTime,
    /// Simulation time of binding, in milliseconds.
    pub bound_time_ms: u64,
}

struct EntityRecord {
    info: EntityInfo,
    /// `info.device_type`'s id in [`Registry::device_types`], resolved
    /// at bind time.
    type_id: u32,
    /// The canonical handle of each value in `info.attributes`, in its
    /// (name) order, as handed out by the index writer path at bind time.
    /// A grouped poll attaches a clone of one of these to its reading.
    attribute_handles: Box<[Payload]>,
    driver: Box<dyn DeviceInstance>,
    /// Lease deadline: the entity must renew (by serving a query, poll,
    /// or invocation) before this time or be unbound by
    /// [`Registry::expire_leases`]. `None` when leases are off.
    lease_expires_at: Option<u64>,
    /// A crashed entity stays bound (until its lease expires) but fails
    /// every operation and never renews its lease.
    crashed: bool,
}

/// Records per page of the [`Slab`].
const SLAB_PAGE: usize = 64;

/// The entity slab: every bound record at its `u32` slot, and the freed
/// slots the next binds reuse. Slots live in fixed pages of
/// [`SLAB_PAGE`] records, so growing the slab never moves a record, and
/// each page is an ordinary small allocation that the allocator hands
/// out again after a registry is dropped.
#[derive(Default)]
struct Slab {
    pages: Vec<Box<[Option<EntityRecord>]>>,
    /// Slots handed out so far, live or freed: the slab's length.
    len: u32,
    /// Freed slots, reused last freed first.
    free: Vec<u32>,
}

impl Slab {
    /// The slot the next [`Slab::put`] fills.
    fn next_slot(&self) -> u32 {
        self.free.last().copied().unwrap_or(self.len)
    }

    /// Stores `record` at [`Slab::next_slot`].
    fn put(&mut self, record: EntityRecord) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                if (self.len as usize).is_multiple_of(SLAB_PAGE) {
                    self.pages.push((0..SLAB_PAGE).map(|_| None).collect());
                }
                self.len += 1;
                self.len - 1
            }
        };
        *self.cell(slot) = Some(record);
    }

    /// Removes the record in `slot` and frees the slot.
    fn take(&mut self, slot: u32) -> EntityRecord {
        let record = self
            .cell(slot)
            .take()
            .expect("a bound id's slot holds its record");
        self.free.push(slot);
        record
    }

    fn get(&self, slot: u32) -> &EntityRecord {
        self.pages[slot as usize / SLAB_PAGE][slot as usize % SLAB_PAGE]
            .as_ref()
            .expect("an indexed slot holds its record")
    }

    fn get_mut(&mut self, slot: u32) -> &mut EntityRecord {
        self.cell(slot)
            .as_mut()
            .expect("an indexed slot holds its record")
    }

    fn cell(&mut self, slot: u32) -> &mut Option<EntityRecord> {
        &mut self.pages[slot as usize / SLAB_PAGE][slot as usize % SLAB_PAGE]
    }

    /// Every live record, in slot order.
    fn records_mut(&mut self) -> impl Iterator<Item = &mut EntityRecord> {
        self.pages
            .iter_mut()
            .flat_map(|page| page.iter_mut())
            .flatten()
    }
}

/// One declared device type as the registry reads it, resolved once by
/// [`Registry::new`] and addressed by the type's id.
struct TypeDecl {
    /// The type's name, shared by every [`EntityInfo`] and standby of it.
    name: Arc<str>,
    /// The resolved declaration: attributes, sources and actions, own and
    /// inherited.
    device: Device,
    /// The declared `@error` policy, parsed once.
    policy: ErrorPolicy,
    /// The member types of its family (itself and every subtype), in id
    /// (name) order.
    family: Box<[u32]>,
}

impl TypeDecl {
    /// Where attribute `name` sits among a binding's attributes (which
    /// are exactly the declared ones, in name order), when declared.
    fn attribute_position(&self, name: &str) -> Option<usize> {
        self.device.attribute(name)?;
        Some(
            self.device
                .attributes
                .iter()
                .filter(|a| a.name.as_str() < name)
                .count(),
        )
    }
}

/// A validated entity waiting to replace an expired one (see
/// [`Registry::register_standby`]).
struct StandbyRecord {
    device_type: Arc<str>,
    attributes: AttributeMap,
    driver: Box<dyn DeviceInstance>,
}

/// One lease expiry processed by [`Registry::expire_leases`]: the lost
/// entity, and the standby promoted in its place (if any matched).
#[derive(Debug)]
pub struct LeaseTransition {
    /// The entity whose lease ran out (already unbound).
    pub lost: EntityInfo,
    /// The lease deadline that passed; the sweep time minus this is the
    /// detection latency (bounded by the sweep interval).
    pub deadline: u64,
    /// The standby re-bound as its replacement, when one was available.
    pub replacement: Option<EntityId>,
}

/// One reading collected by a batch poll.
///
/// The grouping key and the reading travel as shared [`Payload`] handles:
/// window accumulation, injected duplicates, grouping, and MapReduce
/// chunk ingestion downstream all clone the handle, never the value.
/// `&reading.value` dereferences to [`Value`] for consumers.
#[derive(Debug, Clone, PartialEq)]
pub struct PolledReading {
    /// The polled entity.
    pub entity: EntityId,
    /// The value of the grouping attribute, when grouping was requested.
    pub group: Option<Payload>,
    /// The reading.
    pub value: Payload,
}

/// Counters describing registry activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Successful source queries (including during batch polls).
    pub queries: u64,
    /// Successful action invocations.
    pub invocations: u64,
    /// Driver failures observed (before policy handling).
    pub driver_failures: u64,
    /// Retries issued by the `retry` policy.
    pub retries: u64,
    /// Failovers to sibling entities by the `failover` policy.
    pub failovers: u64,
    /// Failures swallowed by the `ignore` policy.
    pub ignored_failures: u64,
    /// Leases that expired without renewal.
    pub lease_expiries: u64,
    /// Standby promotions performed after a lease expiry.
    pub rebinds: u64,
    /// Failed actuations masked by a declared `@error(fallback = ...)`.
    pub fallback_invocations: u64,
}

/// The entity registry.
///
/// # Examples
///
/// ```
/// use diaspec_core::compile_str;
/// use diaspec_runtime::entity::BindingTime;
/// use diaspec_runtime::registry::Registry;
/// use diaspec_runtime::value::Value;
/// use std::sync::Arc;
///
/// let spec = Arc::new(compile_str(
///     "device PresenceSensor { attribute parkingLot as String; source presence as Boolean; }",
/// )?);
/// let mut registry = Registry::new(spec);
/// registry.bind(
///     "sensor-1".into(),
///     "PresenceSensor",
///     [("parkingLot".to_owned(), Value::from("A22"))].into_iter().collect(),
///     Box::new(|_: &str, _: u64| Ok(Value::Bool(true))),
///     BindingTime::Deployment,
///     0,
/// )?;
/// let found = registry
///     .discover("PresenceSensor")
///     .with_attribute("parkingLot", &Value::from("A22"))
///     .ids();
/// assert_eq!(found.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Registry {
    spec: Arc<CheckedSpec>,
    /// The declared device types; the engine's compiled design shares
    /// this table, so a record's cached id means the same to both.
    device_types: Names,
    /// Per device-type id, what the registry reads of its declaration.
    /// Shared, so a read can hold a declaration while it drives records.
    types: Arc<[TypeDecl]>,
    /// The entity slab: every bound record, at its slot.
    slab: Slab,
    /// Bound id -> its slot, for the by-id entry points.
    slots: BTreeMap<EntityId, u32>,
    /// Read-optimized discovery indexes (exact type, attribute); all
    /// mutation funnels through bind/unbind so keys mirror live bindings
    /// exactly.
    indexes: Indexes,
    /// Validated spares awaiting promotion by [`Registry::expire_leases`].
    standbys: BTreeMap<EntityId, StandbyRecord>,
    /// Lease duration applied to (re)bound entities; `None` disables leases.
    lease_ttl_ms: Option<u64>,
    stats: RegistryStats,
}

impl Registry {
    /// Creates an empty registry over a checked specification.
    #[must_use]
    pub fn new(spec: Arc<CheckedSpec>) -> Self {
        let device_types = Names::new(spec.devices().map(|d| d.name.as_str()));
        // `devices()` enumerates in name order, which is id order.
        let types: Arc<[TypeDecl]> = spec
            .devices()
            .map(|device| TypeDecl {
                name: Arc::from(device.name.as_str()),
                policy: device.error_policy(),
                family: device_types
                    .ids()
                    .filter(|&member| {
                        spec.device_is_subtype(device_types.name(member), &device.name)
                    })
                    .collect(),
                device: device.clone(),
            })
            .collect();
        Registry {
            indexes: Indexes::new(types.len()),
            types,
            device_types,
            spec,
            slab: Slab::default(),
            slots: BTreeMap::new(),
            standbys: BTreeMap::new(),
            lease_ttl_ms: None,
            stats: RegistryStats::default(),
        }
    }

    /// The specification this registry validates against.
    #[must_use]
    pub fn spec(&self) -> &CheckedSpec {
        &self.spec
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Binds an entity.
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::Unknown`] if `device_type` is not declared;
    /// - [`RuntimeError::Configuration`] if the id is already bound, if an
    ///   attribute is missing or undeclared;
    /// - [`RuntimeError::TypeMismatch`] if an attribute value does not
    ///   conform to its declared type.
    pub fn bind(
        &mut self,
        id: EntityId,
        device_type: &str,
        attributes: AttributeMap,
        driver: Box<dyn DeviceInstance>,
        bound_at: BindingTime,
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        let type_id = self.check_binding(&id, device_type, &attributes)?;
        let slot = self.slab.next_slot();
        let attribute_handles = self
            .indexes
            .insert(&id, slot, type_id, &attributes)
            .into_boxed_slice();
        self.slots.insert(id.clone(), slot);
        let record = EntityRecord {
            type_id,
            attribute_handles,
            info: EntityInfo {
                id,
                device_type: Arc::clone(&self.types[type_id as usize].name),
                attributes,
                bound_at,
                bound_time_ms: now_ms,
            },
            driver,
            lease_expires_at: self.lease_ttl_ms.map(|ttl| now_ms.saturating_add(ttl)),
            crashed: false,
        };
        self.slab.put(record);
        Ok(())
    }

    /// Validates that `id` is free and that `attributes` conform to the
    /// declaration of `device_type` (shared by [`Registry::bind`] and
    /// [`Registry::register_standby`]); returns the device type's id.
    fn check_binding(
        &self,
        id: &EntityId,
        device_type: &str,
        attributes: &AttributeMap,
    ) -> Result<u32, RuntimeError> {
        let Some(type_id) = self.device_types.id(device_type) else {
            return Err(RuntimeError::Unknown {
                kind: "device",
                name: device_type.to_owned(),
            });
        };
        let device = &self.types[type_id as usize].device;
        if self.slots.contains_key(id) || self.standbys.contains_key(id) {
            return Err(RuntimeError::Configuration(format!(
                "entity `{id}` is already bound"
            )));
        }
        // Every declared attribute must be provided with a conforming value.
        for attr in &device.attributes {
            match attributes.get(&attr.name) {
                None => {
                    return Err(RuntimeError::Configuration(format!(
                        "entity `{id}` of device `{device_type}` is missing attribute `{}`",
                        attr.name
                    )));
                }
                Some(value) if !value.conforms_to(&attr.ty, &self.spec) => {
                    return Err(RuntimeError::TypeMismatch {
                        at: format!("attribute `{}` of entity `{id}`", attr.name),
                        expected: attr.ty.to_string(),
                        found: value.to_string(),
                    });
                }
                Some(_) => {}
            }
        }
        // And no undeclared attributes may sneak in.
        for name in attributes.keys() {
            if device.attribute(name).is_none() {
                return Err(RuntimeError::Configuration(format!(
                    "entity `{id}` supplies attribute `{name}`, which device \
                     `{device_type}` does not declare"
                )));
            }
        }
        Ok(type_id)
    }

    /// Unbinds an entity, returning its public record. Its slot goes back
    /// to the free list, and index buckets that become empty are deleted
    /// with it, so churn (unbind/rebind cycles) accumulates neither slots
    /// nor stale index keys.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] if the entity is not bound.
    pub fn unbind(&mut self, id: &EntityId) -> Result<EntityInfo, RuntimeError> {
        let slot = self.slots.remove(id).ok_or_else(|| unknown_entity(id))?;
        let record = self.slab.take(slot);
        self.indexes
            .remove(id, record.type_id, &record.info.attributes);
        Ok(record.info)
    }

    /// Whether `id` is currently bound.
    #[must_use]
    pub fn contains(&self, id: &EntityId) -> bool {
        self.slots.contains_key(id)
    }

    /// Number of bound entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no entities are bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The public record of entity `id`.
    #[must_use]
    pub fn entity(&self, id: &EntityId) -> Option<&EntityInfo> {
        self.bound(id).map(|r| &r.info)
    }

    /// The declared device types, by id.
    pub(crate) fn device_types(&self) -> &Names {
        &self.device_types
    }

    /// The device-type id of bound entity `id`.
    pub(crate) fn device_type_id(&self, id: &EntityId) -> Option<u32> {
        self.bound(id).map(|r| r.type_id)
    }

    /// The declared `@error` policy of device type `type_id`.
    pub(crate) fn error_policy(&self, type_id: u32) -> &ErrorPolicy {
        &self.types[type_id as usize].policy
    }

    /// The record in `slot`.
    fn record(&self, slot: u32) -> &EntityRecord {
        self.slab.get(slot)
    }

    /// The record of bound entity `id`.
    fn bound(&self, id: &EntityId) -> Option<&EntityRecord> {
        self.slots.get(id).map(|&slot| self.record(slot))
    }

    /// The slot of bound entity `id`.
    fn slot_of(&self, id: &EntityId) -> Result<u32, RuntimeError> {
        self.slots
            .get(id)
            .copied()
            .ok_or_else(|| unknown_entity(id))
    }

    /// Starts a discovery query for entities of `device_type` (or any of
    /// its subtypes).
    #[must_use]
    pub fn discover(&self, device_type: &str) -> DiscoveryQuery<'_> {
        DiscoveryQuery {
            registry: self,
            device_type: device_type.to_owned(),
            filters: Vec::new(),
        }
    }

    /// The member types of `device_type`'s family (itself and every
    /// subtype), in name order; empty for an undeclared type.
    fn family(&self, device_type: &str) -> &[u32] {
        self.device_types
            .id(device_type)
            .map_or(&[], |ty| &self.types[ty as usize].family)
    }

    /// The other bound members of `slot`'s device family (its exact type
    /// and subtypes): interchangeable siblings first (identical
    /// attributes, e.g. a second sensor in the same parking lot), then
    /// the rest (e.g. a wing altimeter standing in for the nose one),
    /// each in family order.
    fn siblings(&self, slot: u32) -> Vec<u32> {
        let record = self.record(slot);
        let family = &self.types[record.type_id as usize].family;
        let (mut matching, others): (Vec<u32>, Vec<u32>) = self
            .indexes
            .family_slots(family)
            .map(|(_, sibling)| sibling)
            .filter(|&sibling| sibling != slot)
            .partition(|&sibling| self.record(sibling).info.attributes == record.info.attributes);
        matching.extend(others);
        matching
    }

    /// Reads `source` from entity `id`, applying the device's `@error`
    /// policy on driver failure.
    ///
    /// Returns `Ok(None)` when a failure was swallowed by an `ignore`
    /// policy (the reading is simply absent).
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::Unknown`] if the entity is not bound or the source
    ///   is not declared;
    /// - [`RuntimeError::Device`] if the driver failed and the policy could
    ///   not recover;
    /// - [`RuntimeError::TypeMismatch`] if the driver returned a value not
    ///   conforming to the declared source type.
    pub fn query_source(
        &mut self,
        id: &EntityId,
        source: &str,
        now_ms: u64,
    ) -> Result<Option<Value>, RuntimeError> {
        let slot = self.slot_of(id)?;
        let types = Arc::clone(&self.types);
        let decl = &types[self.record(slot).type_id as usize];
        let Some(src) = decl.device.source(source) else {
            return Err(unknown_source(source, decl));
        };
        self.read(slot, source, &src.ty, &decl.policy, now_ms)
    }

    /// Reads `source` from every bound entity of `device_type` (and
    /// subtypes) in id order — the order `discover(device_type).ids()`
    /// lists them — appending each reading to `out`. Stops at the first
    /// failure the `@error` policy does not recover, as a loop of
    /// [`Registry::query_source`] over those ids would.
    pub(crate) fn query_family(
        &mut self,
        device_type: &str,
        source: &str,
        now_ms: u64,
        out: &mut Vec<(EntityId, Value)>,
    ) -> Result<(), RuntimeError> {
        let family = self.family(device_type);
        let mut members: Vec<(EntityId, u32)> = self
            .indexes
            .family_slots(family)
            .map(|(id, slot)| (id.clone(), slot))
            .collect();
        members.sort_unstable();
        let types = Arc::clone(&self.types);
        for (id, slot) in members {
            let decl = &types[self.record(slot).type_id as usize];
            let Some(src) = decl.device.source(source) else {
                return Err(unknown_source(source, decl));
            };
            if let Some(value) = self.read(slot, source, &src.ty, &decl.policy, now_ms)? {
                out.push((id, value));
            }
        }
        Ok(())
    }

    /// The one per-record read of [`Registry::query_source`],
    /// [`Registry::poll`] and [`Registry::query_family`]: `source` (of
    /// type `ty`) from the record in `slot`, under its type's `policy`.
    /// A driver failure hands its error to the policy, which makes every
    /// further driver call; a value that does not conform to `ty` is an
    /// error.
    fn read(
        &mut self,
        slot: u32,
        source: &str,
        ty: &Type,
        policy: &ErrorPolicy,
        now_ms: u64,
    ) -> Result<Option<Value>, RuntimeError> {
        let value = match self.raw_query(slot, source, now_ms) {
            Ok(value) => value,
            Err(first) => match self.recover(slot, source, now_ms, policy, first)? {
                Some(value) => value,
                None => return Ok(None),
            },
        };
        if !value.conforms_to(ty, &self.spec) {
            return Err(RuntimeError::TypeMismatch {
                at: format!(
                    "source `{source}` of entity `{}`",
                    self.record(slot).info.id
                ),
                expected: ty.to_string(),
                found: value.to_string(),
            });
        }
        Ok(Some(value))
    }

    /// Applies `policy` after the read of `source` from `slot` failed
    /// with `err`.
    fn recover(
        &mut self,
        slot: u32,
        source: &str,
        now_ms: u64,
        policy: &ErrorPolicy,
        err: DeviceError,
    ) -> Result<Option<Value>, RuntimeError> {
        self.stats.driver_failures += 1;
        match policy.kind {
            PolicyKind::Escalate => Err(err.into()),
            PolicyKind::Ignore => {
                self.stats.ignored_failures += 1;
                Ok(None)
            }
            PolicyKind::Retry => {
                for _ in 1..policy.attempts {
                    self.stats.retries += 1;
                    match self.raw_query(slot, source, now_ms) {
                        Ok(value) => return Ok(Some(value)),
                        Err(_) => self.stats.driver_failures += 1,
                    }
                }
                Err(err.into())
            }
            PolicyKind::Failover => {
                for sibling in self.siblings(slot) {
                    self.stats.failovers += 1;
                    if let Ok(value) = self.raw_query(sibling, source, now_ms) {
                        return Ok(Some(value));
                    }
                    self.stats.driver_failures += 1;
                }
                Err(err.into())
            }
        }
    }

    /// Calls the driver of the record in `slot` for `source`, maintaining
    /// counters and lease renewal.
    fn raw_query(&mut self, slot: u32, source: &str, now_ms: u64) -> Result<Value, DeviceError> {
        let record = self.slab.get_mut(slot);
        if record.crashed {
            return Err(DeviceError::new(
                record.info.id.to_string(),
                source,
                "device crashed",
            ));
        }
        let result = record.driver.query(source, now_ms);
        if result.is_ok() {
            self.stats.queries += 1;
            // Serving a read successfully renews the entity's lease.
            if let Some(ttl) = self.lease_ttl_ms {
                record.lease_expires_at = Some(now_ms.saturating_add(ttl));
            }
        }
        result
    }

    /// Polls `source` on every bound entity of `device_type` (and
    /// subtypes), optionally attaching the `group_attr` attribute value for
    /// downstream grouping. Readings come in family order: exact member
    /// types by name, entities by id within each.
    ///
    /// The source declaration, the `@error` policy and the grouping
    /// attribute's position are resolved once per member type; the sweep
    /// then walks the type's slots in id order. A reading is three shared
    /// handles — the entity id, the canonical handle of the grouping value
    /// (one per distinct value among the live bindings), and the wrapped
    /// reading — so a poll sweep allocates for its result vector and its
    /// slot buffer, not per entity.
    ///
    /// Entities whose driver fails under an `ignore` policy are skipped;
    /// other policies apply as in [`Registry::query_source`], and an
    /// unrecovered failure skips the entity as well (the batch must not be
    /// lost to one broken sensor) while still counting in
    /// [`RegistryStats::driver_failures`].
    #[must_use]
    pub fn poll(
        &mut self,
        device_type: &str,
        source: &str,
        group_attr: Option<&str>,
        now_ms: u64,
    ) -> Vec<PolledReading> {
        let Some(root) = self.device_types.id(device_type) else {
            return Vec::new();
        };
        let types = Arc::clone(&self.types);
        let family = &types[root as usize].family;
        // Remote members answer from one exchange per link; a crashed
        // member is never asked (`deploy::sweep`).
        let declared = types[root as usize].device.source(source).is_some();
        let members = self
            .indexes
            .family_slots(family)
            .filter(|&(_, slot)| declared && !self.record(slot).crashed)
            .map(|(id, _)| id);
        let _sweep = crate::deploy::SweepScope::open(source, now_ms, members);
        let mut readings =
            Vec::with_capacity(family.iter().map(|&ty| self.indexes.bucket(ty).len()).sum());
        let mut slots: Vec<u32> = Vec::new();
        for &ty in family.iter() {
            let decl = &types[ty as usize];
            // A member type that does not declare the source has no
            // reading to give; its drivers are not called.
            let Some(src) = decl.device.source(source) else {
                continue;
            };
            let group_at = group_attr.and_then(|attr| decl.attribute_position(attr));
            // The type's slots, copied out of its bucket so that the reads
            // below may drive the records; one buffer serves every type.
            slots.clear();
            slots.extend(self.indexes.bucket(ty).values().copied());
            for &slot in &slots {
                let Ok(Some(value)) = self.read(slot, source, &src.ty, &decl.policy, now_ms) else {
                    continue;
                };
                let record = self.record(slot);
                readings.push(PolledReading {
                    entity: record.info.id.clone(),
                    // The grouping key is the canonical handle of the
                    // attribute value (one per distinct value, owned by
                    // the bind/unbind writer path): a pointer bump, not a
                    // copy of the value.
                    group: group_at.map(|i| record.attribute_handles[i].clone()),
                    // Wrapped once here at pipeline admission; every hop
                    // downstream shares the handle.
                    value: Payload::new(value),
                });
            }
        }
        readings
    }

    /// Invokes `action` on entity `id`, validating arguments against the
    /// declared parameter types and applying the `@error` policy.
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::Unknown`] if the entity or action does not exist;
    /// - [`RuntimeError::ContractViolation`] on an argument-count mismatch;
    /// - [`RuntimeError::TypeMismatch`] on an argument-type mismatch;
    /// - [`RuntimeError::Device`] if the driver failed without recovery.
    pub fn invoke(
        &mut self,
        id: &EntityId,
        action: &str,
        args: &[Value],
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        self.invoke_permitted(id, action, args, now_ms, |_| Ok(()))
            .map(|_| ())
    }

    /// [`Registry::invoke`] behind a caller's contract check: `permits`
    /// sees the entity's device-type id before the action is resolved,
    /// and its error is returned as is. One entity lookup serves the
    /// check, the validation and every attempt; the declaration and the
    /// `@error` policy come from the type table. Returns the device-type
    /// id.
    pub(crate) fn invoke_permitted(
        &mut self,
        id: &EntityId,
        action: &str,
        args: &[Value],
        now_ms: u64,
        permits: impl FnOnce(u32) -> Result<(), RuntimeError>,
    ) -> Result<u32, RuntimeError> {
        let slot = self.slot_of(id)?;
        let type_id = self.record(slot).type_id;
        permits(type_id)?;
        let types = Arc::clone(&self.types);
        let decl = &types[type_id as usize];
        let Some(act) = decl.device.action(action) else {
            return Err(RuntimeError::Unknown {
                kind: "action",
                name: format!("{action} on {}", decl.name),
            });
        };
        if act.params.len() != args.len() {
            return Err(RuntimeError::ContractViolation {
                component: format!("entity `{id}`"),
                message: format!(
                    "action `{action}` takes {} argument(s), got {}",
                    act.params.len(),
                    args.len()
                ),
            });
        }
        for ((pname, pty), arg) in act.params.iter().zip(args) {
            if !arg.conforms_to(pty, &self.spec) {
                return Err(RuntimeError::TypeMismatch {
                    at: format!("argument `{pname}` of action `{action}` on `{id}`"),
                    expected: pty.to_string(),
                    found: arg.to_string(),
                });
            }
        }
        let policy = &decl.policy;
        let attempts = if policy.kind == PolicyKind::Retry {
            policy.attempts
        } else {
            1
        };
        let mut attempt = 1;
        let err = loop {
            match self.raw_invoke(slot, action, args, now_ms) {
                Ok(()) => return Ok(type_id),
                Err(e) => {
                    self.stats.driver_failures += 1;
                    if attempt >= attempts {
                        break e;
                    }
                }
            }
            attempt += 1;
            self.stats.retries += 1;
        };
        if policy.kind == PolicyKind::Ignore {
            self.stats.ignored_failures += 1;
            return Ok(type_id);
        }
        if let Some(fallback) = policy.fallback.as_deref() {
            if self.invoke_fallback(slot, fallback, now_ms) {
                return Ok(type_id);
            }
        }
        Err(err.into())
    }

    /// Calls the driver of the record in `slot` for `action`, maintaining
    /// counters and lease renewal.
    fn raw_invoke(
        &mut self,
        slot: u32,
        action: &str,
        args: &[Value],
        now_ms: u64,
    ) -> Result<(), DeviceError> {
        let record = self.slab.get_mut(slot);
        if record.crashed {
            return Err(DeviceError::new(
                record.info.id.to_string(),
                action,
                "device crashed",
            ));
        }
        record.driver.invoke(action, args, now_ms)?;
        self.stats.invocations += 1;
        // Serving an actuation successfully renews the entity's lease.
        if let Some(ttl) = self.lease_ttl_ms {
            record.lease_expires_at = Some(now_ms.saturating_add(ttl));
        }
        Ok(())
    }

    /// Drives the declared `@error(fallback = ...)` action after an
    /// unrecovered actuation failure: a parameterless safe-state actuation
    /// tried on the failed entity first, then across its device family
    /// (interchangeable siblings preferred). Returns whether any target
    /// acknowledged it.
    fn invoke_fallback(&mut self, slot: u32, action: &str, now_ms: u64) -> bool {
        let siblings = self.siblings(slot);
        for target in std::iter::once(slot).chain(siblings) {
            if self.raw_invoke(target, action, &[], now_ms).is_ok() {
                self.stats.fallback_invocations += 1;
                return true;
            }
            self.stats.driver_failures += 1;
        }
        false
    }

    /// Enables (or disables) lease-based bindings: every bound entity must
    /// renew its lease — by successfully serving a query, poll, or
    /// invocation — within `ttl_ms`, or [`Registry::expire_leases`] will
    /// unbind it. Existing bindings are stamped with a fresh lease starting
    /// at `now_ms`; `None` clears all leases.
    pub fn set_lease_ttl(&mut self, ttl_ms: Option<u64>, now_ms: u64) {
        self.lease_ttl_ms = ttl_ms;
        for record in self.slab.records_mut() {
            record.lease_expires_at = ttl_ms.map(|ttl| now_ms.saturating_add(ttl));
        }
    }

    /// The lease deadline of entity `id`, when leases are enabled and the
    /// entity is bound.
    #[must_use]
    pub fn lease_of(&self, id: &EntityId) -> Option<u64> {
        self.bound(id).and_then(|r| r.lease_expires_at)
    }

    /// Marks entity `id` as crashed (`true`) or restarted (`false`). A
    /// crashed entity stays bound — until its lease expires — but fails
    /// every query and actuation and never renews its lease.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] if the entity is not bound.
    pub fn set_crashed(&mut self, id: &EntityId, crashed: bool) -> Result<(), RuntimeError> {
        let slot = self.slot_of(id)?;
        self.slab.get_mut(slot).crashed = crashed;
        Ok(())
    }

    /// Whether entity `id` is currently marked crashed.
    #[must_use]
    pub fn is_crashed(&self, id: &EntityId) -> bool {
        self.bound(id).is_some_and(|r| r.crashed)
    }

    /// Registers a standby entity: validated exactly like [`Registry::bind`]
    /// but invisible to discovery, queries, and actuations until
    /// [`Registry::expire_leases`] promotes it to replace an expired entity
    /// of the same device type.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Registry::bind`].
    pub fn register_standby(
        &mut self,
        id: EntityId,
        device_type: &str,
        attributes: AttributeMap,
        driver: Box<dyn DeviceInstance>,
    ) -> Result<(), RuntimeError> {
        let type_id = self.check_binding(&id, device_type, &attributes)?;
        self.standbys.insert(
            id,
            StandbyRecord {
                device_type: Arc::clone(&self.types[type_id as usize].name),
                attributes,
                driver,
            },
        );
        Ok(())
    }

    /// Unbinds every entity whose lease deadline is at or before `now_ms`
    /// and promotes a standby replacement where one is available — a
    /// standby of the same device type with identical attributes is
    /// preferred, then any standby of the exact type, in id order.
    /// Replacements are bound at [`BindingTime::Runtime`] with a fresh
    /// lease.
    ///
    /// Leases are heartbeat-based: only devices that produce data renew
    /// through their own traffic, so silence is meaningful for them
    /// alone. A pure actuator (no declared sources) is reaped only once
    /// marked crashed — its failures otherwise surface at actuation time
    /// through the declared `@error` policy.
    pub fn expire_leases(&mut self, now_ms: u64) -> Vec<LeaseTransition> {
        let expired: Vec<(EntityId, u64)> = self
            .slots
            .iter()
            .filter_map(|(id, &slot)| {
                let r = self.record(slot);
                let heartbeat_expected =
                    r.crashed || !self.types[r.type_id as usize].device.sources.is_empty();
                if !heartbeat_expected {
                    return None;
                }
                r.lease_expires_at
                    .filter(|t| *t <= now_ms)
                    .map(|deadline| (id.clone(), deadline))
            })
            .collect();
        let mut transitions = Vec::with_capacity(expired.len());
        for (id, deadline) in expired {
            self.stats.lease_expiries += 1;
            let lost = self.unbind(&id).expect("expired entity is bound");
            let replacement = self.promote_standby(&lost, now_ms);
            transitions.push(LeaseTransition {
                lost,
                deadline,
                replacement,
            });
        }
        transitions
    }

    fn promote_standby(&mut self, lost: &EntityInfo, now_ms: u64) -> Option<EntityId> {
        let id = self
            .standbys
            .iter()
            .find(|(_, s)| s.device_type == lost.device_type && s.attributes == lost.attributes)
            .or_else(|| {
                self.standbys
                    .iter()
                    .find(|(_, s)| s.device_type == lost.device_type)
            })
            .map(|(id, _)| id.clone())?;
        let standby = self.standbys.remove(&id).expect("just found");
        self.bind(
            id.clone(),
            &standby.device_type,
            standby.attributes,
            standby.driver,
            BindingTime::Runtime,
            now_ms,
        )
        .expect("standby was validated at registration");
        self.stats.rebinds += 1;
        Some(id)
    }
}

fn unknown_entity(id: &EntityId) -> RuntimeError {
    RuntimeError::Unknown {
        kind: "entity",
        name: id.to_string(),
    }
}

fn unknown_source(source: &str, decl: &TypeDecl) -> RuntimeError {
    RuntimeError::Unknown {
        kind: "source",
        name: format!("{source} on {}", decl.name),
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let types: Vec<&str> = self
            .indexes
            .bound_types()
            .map(|ty| self.device_types.name(ty))
            .collect();
        f.debug_struct("Registry")
            .field("entities", &self.len())
            .field("standbys", &self.standbys.len())
            .field("types", &types)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A builder-style discovery query: device type plus attribute filters.
///
/// Mirrors the generated discover facade of the paper's Figure 11
/// (`discover.parkingEntrancePanels().whereLocation(...)`).
#[derive(Debug)]
pub struct DiscoveryQuery<'r> {
    registry: &'r Registry,
    device_type: String,
    filters: Vec<(String, Value)>,
}

impl<'r> DiscoveryQuery<'r> {
    /// Adds an attribute-equality filter.
    #[must_use]
    pub fn with_attribute(mut self, name: &str, value: &Value) -> Self {
        self.filters.push((name.to_owned(), value.clone()));
        self
    }

    /// Runs the query, returning matching entity ids in deterministic
    /// (lexicographic) order.
    ///
    /// Attribute filters resolve through the registry's attribute index:
    /// cost is proportional to the smallest filter's match set per exact
    /// type, not to the family size. The family itself comes from the
    /// precomputed member list, so an unrelated type's bindings are never
    /// visited.
    #[must_use]
    pub fn ids(&self) -> Vec<EntityId> {
        let indexes = &self.registry.indexes;
        let mut out: Vec<EntityId> = Vec::new();
        for &ty in self.registry.family(&self.device_type) {
            if self.filters.is_empty() {
                out.extend(indexes.bucket(ty).keys().cloned());
                continue;
            }
            // Intersect the per-filter index sets, smallest first.
            let mut sets: Vec<&BTreeSet<EntityId>> = Vec::with_capacity(self.filters.len());
            let mut empty = false;
            for (attr, value) in &self.filters {
                match indexes.attribute_bucket(ty, attr, value) {
                    Some(set) if !set.is_empty() => sets.push(set),
                    _ => {
                        empty = true;
                        break;
                    }
                }
            }
            if empty {
                continue;
            }
            sets.sort_by_key(|s| s.len());
            let (first, rest) = sets.split_first().expect("at least one filter");
            out.extend(
                first
                    .iter()
                    .filter(|id| rest.iter().all(|set| set.contains(*id)))
                    .cloned(),
            );
        }
        out.sort();
        out
    }

    /// Runs the query, returning full records.
    #[must_use]
    pub fn entities(&self) -> Vec<&'r EntityInfo> {
        let registry = self.registry;
        self.ids()
            .iter()
            .map(|id| registry.entity(id).expect("a discovered id is bound"))
            .collect()
    }

    /// Number of matching entities.
    #[must_use]
    pub fn count(&self) -> usize {
        self.ids().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    const SPEC: &str = r#"
        device PresenceSensor {
          attribute parkingLot as String;
          source presence as Boolean;
        }
        device DisplayPanel { action update(status as String); }
        device ParkingEntrancePanel extends DisplayPanel {
          attribute location as String;
        }
        @error(policy = "retry", attempts = 3)
        device FlakySensor { source reading as Integer; }
        @error(policy = "ignore")
        device LossySensor { source reading as Integer; action blink; }
        @error(policy = "failover")
        device RedundantSensor {
          attribute zone as String;
          source reading as Integer;
        }
        @error(policy = "retry", attempts = 2, fallback = "neutral")
        device SafeActuator {
          action engage(level as Integer);
          action neutral;
        }
    "#;

    fn registry() -> Registry {
        Registry::new(Arc::new(compile_str(SPEC).unwrap()))
    }

    fn const_driver(v: Value) -> Box<dyn DeviceInstance> {
        Box::new(move |_: &str, _: u64| Ok(v.clone()))
    }

    fn attrs(pairs: &[(&str, &str)]) -> AttributeMap {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Value::from(*v)))
            .collect()
    }

    /// A driver failing the first `fail_count` calls, then succeeding.
    struct FlakyDriver {
        fail_count: u32,
        calls: u32,
        value: Value,
    }

    impl DeviceInstance for FlakyDriver {
        fn query(&mut self, _source: &str, _now: u64) -> Result<Value, DeviceError> {
            self.calls += 1;
            if self.calls <= self.fail_count {
                Err(DeviceError::new("flaky", "query", "transient"))
            } else {
                Ok(self.value.clone())
            }
        }

        fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
            self.calls += 1;
            if self.calls <= self.fail_count {
                Err(DeviceError::new("flaky", "invoke", "transient"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn bind_and_discover_by_attribute() {
        let mut reg = registry();
        for (id, lot) in [("s1", "A22"), ("s2", "A22"), ("s3", "B16")] {
            reg.bind(
                id.into(),
                "PresenceSensor",
                attrs(&[("parkingLot", lot)]),
                const_driver(Value::Bool(false)),
                BindingTime::Deployment,
                0,
            )
            .unwrap();
        }
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.discover("PresenceSensor").count(), 3);
        let a22 = reg
            .discover("PresenceSensor")
            .with_attribute("parkingLot", &Value::from("A22"))
            .ids();
        assert_eq!(a22, vec![EntityId::from("s1"), EntityId::from("s2")]);
        let none = reg
            .discover("PresenceSensor")
            .with_attribute("parkingLot", &Value::from("Z"))
            .count();
        assert_eq!(none, 0);
    }

    #[test]
    fn discovery_includes_subtypes() {
        let mut reg = registry();
        reg.bind(
            "panel-1".into(),
            "ParkingEntrancePanel",
            attrs(&[("location", "A22")]),
            const_driver(Value::Bool(false)),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // Discovering the base type finds the subtype entity.
        assert_eq!(reg.discover("DisplayPanel").count(), 1);
        assert_eq!(reg.discover("ParkingEntrancePanel").count(), 1);
        // But not the other way round.
        assert_eq!(reg.discover("PresenceSensor").count(), 0);
    }

    #[test]
    fn bind_validates_device_type() {
        let mut reg = registry();
        let err = reg
            .bind(
                "x".into(),
                "Ghost",
                AttributeMap::new(),
                const_driver(Value::Bool(false)),
                BindingTime::Launch,
                0,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unknown { kind: "device", .. }));
    }

    #[test]
    fn bind_validates_attributes() {
        let mut reg = registry();
        // Missing attribute.
        let err = reg
            .bind(
                "x".into(),
                "PresenceSensor",
                AttributeMap::new(),
                const_driver(Value::Bool(false)),
                BindingTime::Launch,
                0,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Configuration(_)), "{err}");
        // Wrong type.
        let err = reg
            .bind(
                "x".into(),
                "PresenceSensor",
                [("parkingLot".to_owned(), Value::Int(5))]
                    .into_iter()
                    .collect(),
                const_driver(Value::Bool(false)),
                BindingTime::Launch,
                0,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch { .. }), "{err}");
        // Undeclared attribute.
        let err = reg
            .bind(
                "x".into(),
                "PresenceSensor",
                attrs(&[("parkingLot", "A22"), ("bogus", "v")]),
                const_driver(Value::Bool(false)),
                BindingTime::Launch,
                0,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Configuration(_)), "{err}");
    }

    #[test]
    fn double_bind_rejected_and_unbind_frees_id() {
        let mut reg = registry();
        let bind = |reg: &mut Registry| {
            reg.bind(
                "s1".into(),
                "PresenceSensor",
                attrs(&[("parkingLot", "A22")]),
                const_driver(Value::Bool(true)),
                BindingTime::Runtime,
                7,
            )
        };
        bind(&mut reg).unwrap();
        assert!(bind(&mut reg).is_err());
        let info = reg.unbind(&"s1".into()).unwrap();
        assert_eq!(info.bound_at, BindingTime::Runtime);
        assert_eq!(info.bound_time_ms, 7);
        assert!(!reg.contains(&"s1".into()));
        bind(&mut reg).unwrap();
        assert!(reg.unbind(&"ghost".into()).is_err());
    }

    #[test]
    fn query_checks_source_type_conformance() {
        let mut reg = registry();
        reg.bind(
            "s1".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Int(42)), // presence declared Boolean!
            BindingTime::Launch,
            0,
        )
        .unwrap();
        let err = reg.query_source(&"s1".into(), "presence", 0).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn query_unknown_source_rejected() {
        let mut reg = registry();
        reg.bind(
            "s1".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Bool(true)),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        assert!(reg.query_source(&"s1".into(), "ghost", 0).is_err());
        assert!(reg.query_source(&"nobody".into(), "presence", 0).is_err());
    }

    #[test]
    fn retry_policy_recovers_transient_failures() {
        let mut reg = registry();
        reg.bind(
            "f1".into(),
            "FlakySensor",
            AttributeMap::new(),
            Box::new(FlakyDriver {
                fail_count: 2,
                calls: 0,
                value: Value::Int(9),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // attempts = 3: fails twice, succeeds on the third call.
        let v = reg.query_source(&"f1".into(), "reading", 0).unwrap();
        assert_eq!(v, Some(Value::Int(9)));
        assert_eq!(reg.stats().retries, 2);
        assert_eq!(reg.stats().driver_failures, 2);
    }

    #[test]
    fn retry_policy_gives_up_after_attempts() {
        let mut reg = registry();
        reg.bind(
            "f1".into(),
            "FlakySensor",
            AttributeMap::new(),
            Box::new(FlakyDriver {
                fail_count: 10,
                calls: 0,
                value: Value::Int(9),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        assert!(reg.query_source(&"f1".into(), "reading", 0).is_err());
        assert_eq!(reg.stats().retries, 2, "attempts=3 means 2 retries");
    }

    #[test]
    fn ignore_policy_swallows_failures() {
        let mut reg = registry();
        reg.bind(
            "l1".into(),
            "LossySensor",
            AttributeMap::new(),
            Box::new(FlakyDriver {
                fail_count: u32::MAX,
                calls: 0,
                value: Value::Int(0),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        assert_eq!(reg.query_source(&"l1".into(), "reading", 0).unwrap(), None);
        assert_eq!(reg.stats().ignored_failures, 1);
        // Actuation is also swallowed.
        reg.invoke(&"l1".into(), "blink", &[], 0).unwrap();
        assert_eq!(reg.stats().ignored_failures, 2);
    }

    #[test]
    fn failover_policy_uses_sibling_with_same_attributes() {
        let mut reg = registry();
        reg.bind(
            "r1".into(),
            "RedundantSensor",
            attrs(&[("zone", "north")]),
            Box::new(FlakyDriver {
                fail_count: u32::MAX,
                calls: 0,
                value: Value::Int(0),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        reg.bind(
            "r2".into(),
            "RedundantSensor",
            attrs(&[("zone", "north")]),
            const_driver(Value::Int(77)),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        reg.bind(
            "r3".into(),
            "RedundantSensor",
            attrs(&[("zone", "south")]), // different zone: only a fallback
            const_driver(Value::Int(1)),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // r2 (same zone) is preferred over r3 (fallback).
        let v = reg.query_source(&"r1".into(), "reading", 0).unwrap();
        assert_eq!(v, Some(Value::Int(77)));
        assert_eq!(reg.stats().failovers, 1);
    }

    #[test]
    fn failover_falls_back_to_any_family_member() {
        let mut reg = registry();
        reg.bind(
            "r1".into(),
            "RedundantSensor",
            attrs(&[("zone", "north")]),
            Box::new(FlakyDriver {
                fail_count: u32::MAX,
                calls: 0,
                value: Value::Int(0),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // Alone in the family: failover has nowhere to go.
        assert!(reg.query_source(&"r1".into(), "reading", 0).is_err());
        // A sibling in another zone still rescues the reading.
        reg.bind(
            "r9".into(),
            "RedundantSensor",
            attrs(&[("zone", "south")]),
            const_driver(Value::Int(5)),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        let v = reg.query_source(&"r1".into(), "reading", 0).unwrap();
        assert_eq!(v, Some(Value::Int(5)));
    }

    #[test]
    fn poll_collects_groups_and_skips_failures() {
        let mut reg = registry();
        for (id, lot, occupied) in [
            ("s1", "A22", true),
            ("s2", "A22", false),
            ("s3", "B16", true),
        ] {
            reg.bind(
                id.into(),
                "PresenceSensor",
                attrs(&[("parkingLot", lot)]),
                const_driver(Value::Bool(occupied)),
                BindingTime::Deployment,
                0,
            )
            .unwrap();
        }
        let readings = reg.poll("PresenceSensor", "presence", Some("parkingLot"), 10);
        assert_eq!(readings.len(), 3);
        assert!(readings
            .iter()
            .all(|r| r.group.as_deref().and_then(Value::as_str).is_some()));
        let ungrouped = reg.poll("PresenceSensor", "presence", None, 10);
        assert!(ungrouped.iter().all(|r| r.group.is_none()));
    }

    #[test]
    fn invoke_validates_signature() {
        let mut reg = registry();
        reg.bind(
            "p1".into(),
            "ParkingEntrancePanel",
            attrs(&[("location", "A22")]),
            Box::new(FlakyDriver {
                fail_count: 0,
                calls: 0,
                value: Value::Bool(false),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // Wrong arity.
        let err = reg.invoke(&"p1".into(), "update", &[], 0).unwrap_err();
        assert!(
            matches!(err, RuntimeError::ContractViolation { .. }),
            "{err}"
        );
        // Wrong type.
        let err = reg
            .invoke(&"p1".into(), "update", &[Value::Int(3)], 0)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch { .. }), "{err}");
        // Unknown action.
        let err = reg.invoke(&"p1".into(), "explode", &[], 0).unwrap_err();
        assert!(matches!(err, RuntimeError::Unknown { .. }), "{err}");
        // Correct call (inherited action from DisplayPanel).
        reg.invoke(&"p1".into(), "update", &[Value::from("free: 12")], 0)
            .unwrap();
        assert_eq!(reg.stats().invocations, 1);
    }

    #[test]
    fn error_policy_parsing() {
        let spec = compile_str(SPEC).unwrap();
        let flaky = spec.device("FlakySensor").unwrap().error_policy();
        assert_eq!(flaky.kind, PolicyKind::Retry);
        assert_eq!(flaky.attempts, 3);
        assert_eq!(flaky.fallback, None);
        let lossy = spec.device("LossySensor").unwrap().error_policy();
        assert_eq!(lossy.kind, PolicyKind::Ignore);
        let plain = spec.device("PresenceSensor").unwrap().error_policy();
        assert_eq!(plain.kind, PolicyKind::Escalate);
        let safe = spec.device("SafeActuator").unwrap().error_policy();
        assert_eq!(safe.fallback.as_deref(), Some("neutral"));
    }

    /// A driver whose `failing` action always errors; everything else
    /// succeeds (queries included).
    struct FailingActionDriver {
        failing: &'static str,
    }

    impl DeviceInstance for FailingActionDriver {
        fn query(&mut self, _source: &str, _now: u64) -> Result<Value, DeviceError> {
            Ok(Value::Int(0))
        }

        fn invoke(&mut self, action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
            if action == self.failing {
                Err(DeviceError::new("selective", action, "jammed"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn leases_renew_on_activity_and_expire_without_it() {
        let mut reg = registry();
        reg.set_lease_ttl(Some(100), 0);
        reg.bind(
            "s1".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Bool(true)),
            BindingTime::Deployment,
            0,
        )
        .unwrap();
        assert_eq!(reg.lease_of(&"s1".into()), Some(100));
        // Serving a query at t=50 pushes the deadline to t=150.
        reg.query_source(&"s1".into(), "presence", 50).unwrap();
        assert_eq!(reg.lease_of(&"s1".into()), Some(150));
        assert!(reg.expire_leases(149).is_empty());
        let transitions = reg.expire_leases(150);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].lost.id, EntityId::from("s1"));
        assert!(transitions[0].replacement.is_none());
        assert!(!reg.contains(&"s1".into()));
        assert_eq!(reg.stats().lease_expiries, 1);
        assert_eq!(reg.stats().rebinds, 0);
    }

    #[test]
    fn crashed_entity_fails_everything_and_never_renews() {
        let mut reg = registry();
        reg.set_lease_ttl(Some(100), 0);
        reg.bind(
            "s1".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Bool(true)),
            BindingTime::Deployment,
            0,
        )
        .unwrap();
        reg.set_crashed(&"s1".into(), true).unwrap();
        assert!(reg.is_crashed(&"s1".into()));
        // The driver would answer, but the crash masks it — and the
        // failed query must not renew the lease.
        assert!(reg.query_source(&"s1".into(), "presence", 50).is_err());
        assert_eq!(reg.lease_of(&"s1".into()), Some(100));
        assert_eq!(reg.expire_leases(100).len(), 1);
        // A restart lifts the crash flag.
        assert!(reg.set_crashed(&"ghost".into(), false).is_err());
        assert!(!reg.is_crashed(&"s1".into()));
    }

    #[test]
    fn standby_promotion_prefers_matching_attributes() {
        let mut reg = registry();
        reg.set_lease_ttl(Some(100), 0);
        reg.bind(
            "r1".into(),
            "RedundantSensor",
            attrs(&[("zone", "north")]),
            const_driver(Value::Int(1)),
            BindingTime::Deployment,
            0,
        )
        .unwrap();
        reg.register_standby(
            "sb-a".into(),
            "RedundantSensor",
            attrs(&[("zone", "south")]),
            const_driver(Value::Int(2)),
        )
        .unwrap();
        reg.register_standby(
            "sb-b".into(),
            "RedundantSensor",
            attrs(&[("zone", "north")]),
            const_driver(Value::Int(3)),
        )
        .unwrap();
        assert_eq!(reg.standbys.len(), 2);
        let transitions = reg.expire_leases(100);
        assert_eq!(transitions.len(), 1);
        // sb-b matches the lost entity's attributes exactly and wins over
        // the lexicographically earlier sb-a.
        assert_eq!(transitions[0].replacement, Some(EntityId::from("sb-b")));
        assert_eq!(reg.standbys.len(), 1);
        assert_eq!(reg.stats().rebinds, 1);
        let info = reg.entity(&"sb-b".into()).unwrap();
        assert_eq!(info.bound_at, BindingTime::Runtime);
        assert_eq!(info.bound_time_ms, 100);
        // The replacement starts with a fresh lease.
        assert_eq!(reg.lease_of(&"sb-b".into()), Some(200));
        assert_eq!(
            reg.query_source(&"sb-b".into(), "reading", 100).unwrap(),
            Some(Value::Int(3))
        );
    }

    #[test]
    fn idle_actuator_keeps_its_lease_until_crashed() {
        let mut reg = registry();
        reg.set_lease_ttl(Some(100), 0);
        reg.bind(
            "panel".into(),
            "DisplayPanel",
            AttributeMap::new(),
            const_driver(Value::Bool(true)),
            BindingTime::Deployment,
            0,
        )
        .unwrap();
        // No sources means no heartbeat to miss: the idle actuator
        // survives the sweep long past its nominal deadline.
        assert!(reg.expire_leases(10_000).is_empty());
        assert!(reg.contains(&"panel".into()));
        // Once crashed it is reaped like any silent device.
        reg.set_crashed(&"panel".into(), true).unwrap();
        assert_eq!(reg.expire_leases(10_000).len(), 1);
        assert!(!reg.contains(&"panel".into()));
    }

    #[test]
    fn standby_ids_share_the_bind_namespace() {
        let mut reg = registry();
        reg.bind(
            "s1".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Bool(true)),
            BindingTime::Deployment,
            0,
        )
        .unwrap();
        // A standby cannot reuse a bound id, and vice versa.
        assert!(reg
            .register_standby(
                "s1".into(),
                "PresenceSensor",
                attrs(&[("parkingLot", "A22")]),
                const_driver(Value::Bool(true)),
            )
            .is_err());
        reg.register_standby(
            "sb".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Bool(true)),
        )
        .unwrap();
        assert!(reg
            .bind(
                "sb".into(),
                "PresenceSensor",
                attrs(&[("parkingLot", "A22")]),
                const_driver(Value::Bool(true)),
                BindingTime::Runtime,
                0,
            )
            .is_err());
        // Standby attributes are validated against the declaration.
        assert!(reg
            .register_standby(
                "bad".into(),
                "PresenceSensor",
                AttributeMap::new(),
                const_driver(Value::Bool(true))
            )
            .is_err());
        assert!(reg
            .register_standby(
                "bad".into(),
                "Ghost",
                AttributeMap::new(),
                const_driver(Value::Bool(true))
            )
            .is_err());
    }

    #[test]
    fn fallback_action_masks_failed_actuation_on_same_entity() {
        let mut reg = registry();
        reg.bind(
            "a1".into(),
            "SafeActuator",
            AttributeMap::new(),
            Box::new(FailingActionDriver { failing: "engage" }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // `engage` fails both retry attempts, then the declared fallback
        // `neutral` succeeds on the same entity.
        reg.invoke(&"a1".into(), "engage", &[Value::Int(5)], 0)
            .unwrap();
        assert_eq!(reg.stats().retries, 1, "attempts=2 means 1 retry");
        assert_eq!(reg.stats().fallback_invocations, 1);
    }

    #[test]
    fn fallback_action_fails_over_to_a_family_sibling() {
        let mut reg = registry();
        reg.bind(
            "a1".into(),
            "SafeActuator",
            AttributeMap::new(),
            Box::new(FlakyDriver {
                fail_count: u32::MAX,
                calls: 0,
                value: Value::Int(0),
            }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        // Alone, even the fallback fails: the error escalates.
        assert!(reg
            .invoke(&"a1".into(), "engage", &[Value::Int(5)], 0)
            .is_err());
        // With a healthy sibling, the fallback lands there.
        reg.bind(
            "a2".into(),
            "SafeActuator",
            AttributeMap::new(),
            Box::new(FailingActionDriver { failing: "engage" }),
            BindingTime::Launch,
            0,
        )
        .unwrap();
        reg.invoke(&"a1".into(), "engage", &[Value::Int(5)], 0)
            .unwrap();
        assert_eq!(reg.stats().fallback_invocations, 1);
    }

    /// The indexes mirror the live bindings exactly, and so does the
    /// handle table they own: every binding holds, per attribute, the one
    /// canonical handle of its value — the index key itself, which
    /// `mirrors` has just shown exists for live values only.
    fn assert_mirrored(reg: &Registry) {
        reg.indexes
            .mirrors(reg.slots.iter().map(|(id, &slot)| {
                let rec = reg.record(slot);
                (id, slot, rec.type_id, &rec.info.attributes)
            }))
            .expect("indexes mirror live bindings");
        for (id, &slot) in &reg.slots {
            let rec = reg.record(slot);
            assert_eq!(&rec.info.id, id, "slot {slot} holds another entity");
            assert_eq!(rec.attribute_handles.len(), rec.info.attributes.len());
            for ((attr, value), held) in rec.info.attributes.iter().zip(&rec.attribute_handles) {
                let canonical = reg
                    .indexes
                    .canonical_handle(rec.type_id, attr, value)
                    .expect("a live value has a handle");
                assert!(
                    std::ptr::eq(canonical.value(), held.value()),
                    "`{id}` holds a stale handle for `{attr}`"
                );
            }
        }
    }

    #[test]
    fn attribute_handles_are_shared_per_value_and_dropped_with_the_last_binding() {
        let mut reg = registry();
        for (id, lot) in [("s1", "A22"), ("s2", "A22"), ("s3", "B16")] {
            reg.bind(
                id.into(),
                "PresenceSensor",
                attrs(&[("parkingLot", lot)]),
                const_driver(Value::Bool(true)),
                BindingTime::Deployment,
                0,
            )
            .unwrap();
        }
        let readings = reg.poll("PresenceSensor", "presence", Some("parkingLot"), 1);
        let group = |i: usize| readings[i].group.clone().expect("grouped poll");
        let (a22, also_a22, b16) = (group(0), group(1), group(2));
        assert!(std::ptr::eq(a22.value(), also_a22.value()));
        assert!(!std::ptr::eq(a22.value(), b16.value()));
        // Polling again hands out the same handles, not fresh ones.
        let again = reg.poll("PresenceSensor", "presence", Some("parkingLot"), 2);
        assert!(std::ptr::eq(
            a22.value(),
            again[0].group.as_ref().unwrap().value()
        ));
        // The readings themselves are the interned Boolean.
        assert!(std::ptr::eq(
            readings[0].value.value(),
            readings[2].value.value()
        ));
        drop((readings, again, also_a22));
        // Held by: the table, the two bindings, and `a22` here.
        assert_eq!(a22.handle_count(), 4);

        reg.unbind(&"s1".into()).unwrap();
        assert_eq!(a22.handle_count(), 3);
        reg.unbind(&"s2".into()).unwrap();
        // The last `A22` binding took the table's handle with it.
        assert_eq!(a22.handle_count(), 1);
        assert!(reg
            .indexes
            .canonical_handle(
                reg.device_types.id("PresenceSensor").unwrap(),
                "parkingLot",
                &Value::from("A22")
            )
            .is_none());
        assert_eq!(b16.handle_count(), 3);
        assert_mirrored(&reg);

        // Re-binding the value mints a new handle, equal to the old one.
        reg.bind(
            "s4".into(),
            "PresenceSensor",
            attrs(&[("parkingLot", "A22")]),
            const_driver(Value::Bool(true)),
            BindingTime::Runtime,
            3,
        )
        .unwrap();
        let fresh = reg.poll("PresenceSensor", "presence", Some("parkingLot"), 4);
        let reborn = fresh[1].group.as_ref().expect("grouped poll");
        assert_eq!(fresh[1].entity, EntityId::from("s4"));
        assert!(!std::ptr::eq(reborn.value(), a22.value()));
        assert_eq!(reborn, &a22);
        assert_mirrored(&reg);
    }

    /// Property test for the index writer path: under seeded
    /// bind/unbind/rebind churn the discovery indexes must mirror the live
    /// bindings exactly — no stale `(type, attribute, value)` or type key
    /// may outlive its last binding, and no binding may go unindexed.
    /// The same holds for the canonical attribute handles the index keys
    /// own: every live binding holds the current one.
    #[test]
    fn index_keys_mirror_live_bindings_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut reg = registry();
        let mut rng = StdRng::seed_from_u64(0x1D_CB5);
        let types = ["PresenceSensor", "RedundantSensor", "ParkingEntrancePanel"];
        let zones = ["A22", "B16", "C07", "D41"];
        let mut peak_attr_keys = 0usize;
        let mut peak_live = 0usize;

        for round in 0..2_000u32 {
            let slot = rng.gen_range(0..40u32);
            let id = EntityId::from(format!("churn-{slot}"));
            if reg.contains(&id) {
                reg.unbind(&id).unwrap();
            }
            // Two thirds of the rounds rebind the slot under a fresh
            // type/attribute combination; the rest leave it unbound.
            if round % 3 != 2 {
                let ty = types[rng.gen_range(0..types.len())];
                let attr = match ty {
                    "PresenceSensor" => ("parkingLot", zones[rng.gen_range(0..zones.len())]),
                    "RedundantSensor" => ("zone", zones[rng.gen_range(0..zones.len())]),
                    _ => ("location", zones[rng.gen_range(0..zones.len())]),
                };
                reg.bind(
                    id,
                    ty,
                    attrs(&[attr]),
                    const_driver(Value::Bool(true)),
                    BindingTime::Runtime,
                    u64::from(round),
                )
                .unwrap();
            }
            peak_attr_keys = peak_attr_keys.max(reg.indexes.attribute_key_count());
            peak_live = peak_live.max(reg.len());
            // Freed slots are reused before the slab grows.
            assert_eq!(reg.slab.len as usize, peak_live, "round {round}");
            if round % 100 == 0 {
                assert_mirrored(&reg);
            }
        }
        assert_mirrored(&reg);
        // Key space is bounded by the live combination count, not by the
        // churn volume: 3 types x 4 zones = 12 possible attribute keys.
        assert!(
            peak_attr_keys <= types.len() * zones.len(),
            "attribute keys leaked under churn: peak {peak_attr_keys}"
        );
        assert!(reg.indexes.bound_types().count() <= types.len());
        // Discovery still agrees with a full scan of the live bindings.
        let discovered = reg.discover("DisplayPanel").count();
        let scanned = reg
            .slots
            .values()
            .map(|&slot| reg.record(slot))
            .filter(|rec| &*rec.info.device_type == "ParkingEntrancePanel")
            .count();
        assert_eq!(discovered, scanned);
    }
}
