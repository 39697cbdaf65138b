//! Dense ids for the names a checked design declares.
//!
//! The engine and the registry never move a component, device type or
//! source *name* through a message: they move its id, the name's
//! position in a [`Names`] table built once from the immutable spec.
//! Names live once, in the table; a lookup by name is a binary search
//! that allocates nothing, and [`Names::name`] borrows.

use std::cmp::Ordering;
use std::sync::Arc;

/// The sorted names of one kind (contexts, controllers, device types,
/// sources, actions); a name's id is its position. Sorting makes id order
/// name order, the order the spec's own maps enumerate, so iterating ids
/// keeps every name-ordered walk deterministic as before. The names are
/// stored back to back in one string, so a table of a thousand names is
/// two allocations. Cloning shares the table.
#[derive(Debug, Clone)]
pub(crate) struct Names {
    text: Arc<str>,
    /// Where each name ends in `text`.
    ends: Arc<[u32]>,
}

impl Names {
    /// Interns `names` (duplicates collapse to one id).
    pub(crate) fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut sorted: Vec<&str> = names.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let text: String = sorted.concat();
        let ends = sorted
            .iter()
            .scan(0, |end, name| {
                *end += name.len() as u32;
                Some(*end)
            })
            .collect();
        Names {
            text: text.into(),
            ends,
        }
    }

    /// The id of `name`, when it is in the table.
    pub(crate) fn id(&self, name: &str) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.ends.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.name(mid as u32).cmp(name) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// If `id` was not handed out by this table.
    pub(crate) fn name(&self, id: u32) -> &str {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start as usize..self.ends[id] as usize]
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Every id, in name order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> {
        0..self.ends.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_name_order_and_round_trip() {
        let names = Names::new(["b", "a", "c", "a"]);
        assert_eq!(names.len(), 3);
        assert_eq!(names.id("a"), Some(0));
        assert_eq!(names.id("c"), Some(2));
        assert_eq!(names.id("z"), None);
        let all: Vec<&str> = names.ids().map(|id| names.name(id)).collect();
        assert_eq!(all, ["a", "b", "c"]);
        let empty = Names::new([]);
        assert_eq!((empty.len(), empty.id("a")), (0, None));
    }
}
