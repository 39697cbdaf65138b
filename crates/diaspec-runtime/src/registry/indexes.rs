//! Read-optimized discovery indexes behind the registry's writer path.
//!
//! Discovery is the hot read path of the paper's *binding entities*
//! activity: every periodic poll, failover, and `discover(...)` facade
//! call resolves a device family to its bound entities. This module keeps
//! the binding-derived structures that make those reads cheap, each
//! addressed by device-type id (a position in the registry's type table,
//! which also holds each type's precomputed family):
//!
//! - `by_type` — exact device type → its bound entity ids, each with the
//!   slot of its record in the registry's entity slab, in id order. A
//!   poll sweep walks these buckets in order and reaches each record
//!   through its slot, with no lookup by id;
//! - `by_attribute` — exact type → attribute → value → entity ids, so
//!   attribute-filtered discovery intersects small sets instead of
//!   scanning the family. The value key is the **canonical handle** of
//!   that attribute value: every entity bound with an equal value gets a
//!   clone of the one [`Payload`], which is what a grouped poll attaches
//!   to its readings.
//!
//! All mutation funnels through [`Indexes::insert`] and
//! [`Indexes::remove`] (the writer path, driven by `Registry::bind` /
//! `Registry::unbind`); removal deletes emptied attribute buckets so
//! index keys — and with them the canonical handles — always mirror the
//! live bindings exactly: an unbind/rebind churn workload cannot leak key
//! space.

use crate::entity::{AttributeMap, EntityId};
use crate::payload::Payload;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Attribute name → canonical value handle → entity ids, for one exact
/// device type. Nested maps (not one tuple key) so lookups borrow.
type AttributeIndex = BTreeMap<String, BTreeMap<Payload, BTreeSet<EntityId>>>;

/// The registry's derived discovery indexes. See the [module
/// docs](self) for the read/write split.
pub(crate) struct Indexes {
    /// Exact-type index, by type id: bound entity id -> its slot.
    by_type: Vec<BTreeMap<EntityId, u32>>,
    /// Attribute index, by type id: attribute -> value -> entity ids. The
    /// value key owns the canonical handle of that value.
    by_attribute: Vec<AttributeIndex>,
}

impl Indexes {
    /// Empty indexes over `types` declared device types.
    pub(crate) fn new(types: usize) -> Self {
        Indexes {
            by_type: vec![BTreeMap::new(); types],
            by_attribute: (0..types).map(|_| AttributeIndex::new()).collect(),
        }
    }

    // ---- writer path ------------------------------------------------------

    /// Indexes a fresh binding of type `ty` held in `slot`, and returns
    /// the canonical handle of each attribute value, in `attributes`
    /// (name) order. A value no live binding of this type and attribute
    /// carries yet is wrapped here, once; every later binding with an
    /// equal value shares that handle.
    pub(crate) fn insert(
        &mut self,
        id: &EntityId,
        slot: u32,
        ty: u32,
        attributes: &AttributeMap,
    ) -> Vec<Payload> {
        self.by_type[ty as usize].insert(id.clone(), slot);
        let by_attr = &mut self.by_attribute[ty as usize];
        attributes
            .iter()
            .map(|(attr, value)| {
                if !by_attr.contains_key(attr) {
                    by_attr.insert(attr.clone(), BTreeMap::new());
                }
                let by_value = by_attr.get_mut(attr).expect("present or just inserted");
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

    /// Un-indexes a binding of type `ty`, dropping attribute buckets that
    /// become empty so stale `(type, attribute, value)` keys — and the
    /// canonical handles they own — never accumulate under churn.
    pub(crate) fn remove(&mut self, id: &EntityId, ty: u32, attributes: &AttributeMap) {
        self.by_type[ty as usize].remove(id);
        let by_attr = &mut self.by_attribute[ty as usize];
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
    }

    // ---- read path --------------------------------------------------------

    /// The bound entities of one exact device type, with their slots, in
    /// id order.
    pub(crate) fn bucket(&self, ty: u32) -> &BTreeMap<EntityId, u32> {
        &self.by_type[ty as usize]
    }

    /// Bound entity ids carrying one exact (type, attribute, value)
    /// combination.
    pub(crate) fn attribute_bucket(
        &self,
        ty: u32,
        attribute: &str,
        value: &Value,
    ) -> Option<&BTreeSet<EntityId>> {
        self.by_attribute[ty as usize].get(attribute)?.get(value)
    }

    /// Every bound entity of the `family` member types, walking their
    /// buckets in the given order — entities are grouped by exact type,
    /// each group in id order.
    pub(crate) fn family_slots<'a>(
        &'a self,
        family: &'a [u32],
    ) -> impl Iterator<Item = (&'a EntityId, u32)> + 'a {
        family
            .iter()
            .flat_map(|&ty| self.bucket(ty).iter().map(|(id, &slot)| (id, slot)))
    }

    /// Ids of the device types with at least one bound entity.
    pub(crate) fn bound_types(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.by_type.len() as u32).filter(|&ty| !self.bucket(ty).is_empty())
    }

    /// Number of live `(type, attribute, value)` index keys.
    #[cfg(test)]
    pub(crate) fn attribute_key_count(&self) -> usize {
        self.by_attribute
            .iter()
            .flat_map(BTreeMap::values)
            .map(BTreeMap::len)
            .sum()
    }

    /// The canonical handle of one live (type, attribute, value) key.
    #[cfg(test)]
    pub(crate) fn canonical_handle(
        &self,
        ty: u32,
        attribute: &str,
        value: &Value,
    ) -> Option<&Payload> {
        let by_value = self.by_attribute[ty as usize].get(attribute)?;
        by_value.get_key_value(value).map(|(handle, _)| handle)
    }

    /// Checks that the indexes mirror `live` (id, slot, type, attributes)
    /// exactly: every binding is indexed under its slot, and no bucket
    /// entry or key outlives its binding. Test support for the churn
    /// property test.
    #[cfg(test)]
    pub(crate) fn mirrors<'a>(
        &self,
        live: impl Iterator<Item = (&'a EntityId, u32, u32, &'a AttributeMap)>,
    ) -> Result<(), String> {
        let mut expect_type = vec![BTreeMap::new(); self.by_type.len()];
        let mut expect_attr: Vec<AttributeIndex> = (0..self.by_type.len())
            .map(|_| AttributeIndex::new())
            .collect();
        for (id, slot, ty, attrs) in live {
            expect_type[ty as usize].insert(id.clone(), slot);
            for (attr, value) in attrs {
                expect_attr[ty as usize]
                    .entry(attr.clone())
                    .or_default()
                    .entry(Payload::new(value.clone()))
                    .or_default()
                    .insert(id.clone());
            }
        }
        if self.by_type != expect_type {
            return Err(format!(
                "by_type diverged: {} entries indexed, {} expected",
                self.by_type.iter().map(BTreeMap::len).sum::<usize>(),
                expect_type.iter().map(BTreeMap::len).sum::<usize>()
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
