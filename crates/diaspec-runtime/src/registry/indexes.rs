//! Read-optimized discovery indexes behind the registry's writer path.
//!
//! Discovery is the hot read path of the paper's *binding entities*
//! activity: every periodic poll, failover, and `discover(...)` facade
//! call resolves a device family to its bound entities. This module keeps
//! the derived structures that make those reads cheap:
//!
//! - `by_type` — exact device type → bound entity ids;
//! - `by_attribute` — exact type → attribute → value → entity ids, so
//!   attribute-filtered discovery intersects small sets instead of
//!   scanning the family. The value key is the **canonical handle** of
//!   that attribute value: every entity bound with an equal value gets a
//!   clone of the one [`Payload`], which is what a grouped poll attaches
//!   to its readings;
//! - `family` — device type → its member types (itself plus every
//!   declared subtype), precomputed once from the immutable spec so a
//!   family read walks only the member buckets instead of testing every
//!   bound type against the subtype relation.
//!
//! All mutation funnels through [`Indexes::insert`] and
//! [`Indexes::remove`] (the writer path, driven by `Registry::bind` /
//! `Registry::unbind`); removal deletes emptied buckets so index keys —
//! and with them the canonical handles — always mirror the live bindings
//! exactly: an unbind/rebind churn workload cannot leak key space.

use crate::entity::{AttributeMap, EntityId};
use crate::payload::Payload;
use crate::value::Value;
use diaspec_core::model::CheckedSpec;
use std::collections::{BTreeMap, BTreeSet};

/// Attribute name → canonical value handle → entity ids, for one exact
/// device type. Nested maps (not one tuple key) so lookups borrow.
type AttributeIndex = BTreeMap<String, BTreeMap<Payload, BTreeSet<EntityId>>>;

/// The registry's derived discovery indexes. See the [module
/// docs](self) for the read/write split.
pub(crate) struct Indexes {
    /// Exact-type index: device type name -> bound entity ids.
    by_type: BTreeMap<String, BTreeSet<EntityId>>,
    /// Attribute index: exact device type -> attribute -> value -> entity
    /// ids. The value key owns the canonical handle of that value.
    by_attribute: BTreeMap<String, AttributeIndex>,
    /// Device type -> member types of its family (itself plus every
    /// subtype), in declaration (name) order. Immutable after
    /// construction: derived from the spec, not from bindings.
    family: BTreeMap<String, Vec<String>>,
}

impl Indexes {
    /// Builds empty binding indexes plus the spec-derived family table.
    pub(crate) fn new(spec: &CheckedSpec) -> Self {
        let family = spec
            .devices()
            .map(|ancestor| {
                let members: Vec<String> = spec
                    .devices()
                    .filter(|d| spec.device_is_subtype(&d.name, &ancestor.name))
                    .map(|d| d.name.clone())
                    .collect();
                (ancestor.name.clone(), members)
            })
            .collect();
        Indexes {
            by_type: BTreeMap::new(),
            by_attribute: BTreeMap::new(),
            family,
        }
    }

    // ---- writer path ------------------------------------------------------

    /// Indexes a fresh binding and returns the canonical handle of each
    /// attribute value, in `attributes` (name) order. A value no live
    /// binding of this type and attribute carries yet is wrapped here,
    /// once; every later binding with an equal value shares that handle.
    pub(crate) fn insert(
        &mut self,
        id: &EntityId,
        device_type: &str,
        attributes: &AttributeMap,
    ) -> Vec<Payload> {
        entry_or_default(&mut self.by_type, device_type).insert(id.clone());
        if attributes.is_empty() {
            return Vec::new();
        }
        let by_attr = entry_or_default(&mut self.by_attribute, device_type);
        attributes
            .iter()
            .map(|(attr, value)| {
                let by_value = entry_or_default(by_attr, attr);
                let handle = match by_value.get_key_value(value) {
                    Some((handle, _)) => handle.clone(),
                    None => Payload::new(value.clone()),
                };
                by_value
                    .entry(handle.clone())
                    .or_default()
                    .insert(id.clone());
                handle
            })
            .collect()
    }

    /// Un-indexes a binding, dropping buckets that become empty so stale
    /// `(type, attribute, value)` keys — and the canonical handles they
    /// own — never accumulate under churn.
    pub(crate) fn remove(&mut self, id: &EntityId, device_type: &str, attributes: &AttributeMap) {
        if let Some(set) = self.by_type.get_mut(device_type) {
            set.remove(id);
            if set.is_empty() {
                self.by_type.remove(device_type);
            }
        }
        let Some(by_attr) = self.by_attribute.get_mut(device_type) else {
            return;
        };
        for (attr, value) in attributes {
            let Some(by_value) = by_attr.get_mut(attr) else {
                continue;
            };
            if let Some(set) = by_value.get_mut(value) {
                set.remove(id);
                if set.is_empty() {
                    by_value.remove(value);
                }
            }
            if by_value.is_empty() {
                by_attr.remove(attr);
            }
        }
        if by_attr.is_empty() {
            self.by_attribute.remove(device_type);
        }
    }

    // ---- read path --------------------------------------------------------

    /// Member types of `device_type`'s family (itself plus subtypes), in
    /// name order. Empty for an undeclared type.
    pub(crate) fn family_members(&self, device_type: &str) -> &[String] {
        self.family.get(device_type).map_or(&[], Vec::as_slice)
    }

    /// Bound entity ids of one exact device type.
    pub(crate) fn type_bucket(&self, device_type: &str) -> Option<&BTreeSet<EntityId>> {
        self.by_type.get(device_type)
    }

    /// Bound entity ids carrying one exact (type, attribute, value)
    /// combination.
    pub(crate) fn attribute_bucket(
        &self,
        device_type: &str,
        attribute: &str,
        value: &Value,
    ) -> Option<&BTreeSet<EntityId>> {
        self.by_attribute
            .get(device_type)?
            .get(attribute)?
            .get(value)
    }

    /// Every bound entity of `device_type`'s family, walking the member
    /// buckets in family (name) order — ids are grouped by exact type,
    /// each group in id order.
    pub(crate) fn ids_of_family<'a>(
        &'a self,
        device_type: &str,
    ) -> impl Iterator<Item = &'a EntityId> + 'a {
        self.family_members(device_type)
            .iter()
            .filter_map(|ty| self.by_type.get(ty))
            .flatten()
    }

    /// Device type names with at least one bound entity.
    pub(crate) fn bound_types(&self) -> impl Iterator<Item = &String> {
        self.by_type.keys()
    }

    /// Number of live `(type, attribute, value)` index keys.
    #[cfg(test)]
    pub(crate) fn attribute_key_count(&self) -> usize {
        self.by_attribute
            .values()
            .flat_map(BTreeMap::values)
            .map(BTreeMap::len)
            .sum()
    }

    /// The canonical handle of one live (type, attribute, value) key.
    #[cfg(test)]
    pub(crate) fn canonical_handle(
        &self,
        device_type: &str,
        attribute: &str,
        value: &Value,
    ) -> Option<&Payload> {
        let by_value = self.by_attribute.get(device_type)?.get(attribute)?;
        by_value.get_key_value(value).map(|(handle, _)| handle)
    }

    /// Number of live exact-type index keys.
    #[cfg(test)]
    pub(crate) fn type_key_count(&self) -> usize {
        self.by_type.len()
    }

    /// Checks that the indexes mirror `live` (id → (type, attributes))
    /// exactly: every binding is indexed, and no bucket or key outlives
    /// its bindings. Test support for the churn property test.
    #[cfg(test)]
    pub(crate) fn mirrors<'a>(
        &self,
        live: impl Iterator<Item = (&'a EntityId, &'a str, &'a AttributeMap)>,
    ) -> Result<(), String> {
        let mut expect_type: BTreeMap<String, BTreeSet<EntityId>> = BTreeMap::new();
        let mut expect_attr: BTreeMap<String, AttributeIndex> = BTreeMap::new();
        for (id, ty, attrs) in live {
            expect_type
                .entry(ty.to_owned())
                .or_default()
                .insert(id.clone());
            for (attr, value) in attrs {
                expect_attr
                    .entry(ty.to_owned())
                    .or_default()
                    .entry(attr.clone())
                    .or_default()
                    .entry(Payload::new(value.clone()))
                    .or_default()
                    .insert(id.clone());
            }
        }
        if self.by_type != expect_type {
            return Err(format!(
                "by_type diverged: {} keys indexed, {} expected",
                self.by_type.len(),
                expect_type.len()
            ));
        }
        if self.by_attribute != expect_attr {
            return Err(format!(
                "by_attribute diverged: {} keys indexed",
                self.attribute_key_count()
            ));
        }
        Ok(())
    }
}

/// `map.entry(key).or_default()` that allocates the key only on a miss.
fn entry_or_default<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}
