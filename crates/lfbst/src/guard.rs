//! Amortized epoch pinning: the [`Pinned`] operation guard of [`LfBst`].
//!
//! Every `insert`/`remove`/`contains` call pins the current epoch and unpins
//! on return.  A pin is cheap but not free (a store plus a full fence, and a
//! sampled collection attempt), and on read-mostly workloads it is the largest
//! fixed cost per `contains`.  [`LfBst::pin`] hoists it: the returned handle
//! holds one epoch guard across any number of operations.
//!
//! Holding a guard delays memory reclamation — nodes retired while any thread
//! is pinned at the current epoch cannot be freed until that thread unpins or
//! observes a newer epoch.  Long-lived handles should call
//! [`Pinned::refresh`] between batches.

use crossbeam_epoch::{Ebr, ReclaimGuard, Reclaimer};

use crate::tree::LfBst;
use crate::value::MapValue;

/// Items a long walk (a streaming scan, a bulk sweep) handles on one guard
/// before refreshing it, bounding how long it can delay epoch advancement.
pub(crate) const REPIN_EVERY: u64 = 1024;

/// A handle that runs set (and map) operations under one long-lived epoch pin.
///
/// Created by [`LfBst::pin`]; borrows the tree, so the tree cannot be dropped
/// while the handle is alive.  The handle is intentionally **not** `Send`: the
/// epoch pin belongs to the creating thread.
///
/// # Examples
///
/// ```
/// use lfbst::LfBst;
///
/// let set = LfBst::new();
/// let pinned = set.pin();
/// for k in 0..100u64 {
///     pinned.insert(k);
/// }
/// assert!(pinned.contains(&42));
/// assert!(pinned.remove(&42));
/// drop(pinned); // unpins the epoch
/// assert_eq!(set.len(), 99);
/// ```
///
/// The map face gets the same amortization:
///
/// ```
/// use lfbst::LfBst;
///
/// let map: LfBst<u64, u64> = LfBst::new();
/// let pinned = map.pin();
/// for k in 0..100u64 {
///     pinned.upsert(k, k * 2);
/// }
/// assert_eq!(pinned.get(&21), Some(42));
/// assert_eq!(pinned.remove_entry(&21), Some(42));
/// ```
pub struct Pinned<'t, K, V: MapValue = (), R: Reclaimer = Ebr> {
    tree: &'t LfBst<K, V, R>,
    guard: R::Guard,
}

impl<K, V: MapValue, R: Reclaimer> std::fmt::Debug for Pinned<'_, K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pinned").field("tree", &"LfBst").finish_non_exhaustive()
    }
}

impl<K: Ord, V: MapValue, R: Reclaimer> LfBst<K, V, R> {
    /// Pins the reclamation backend once and returns a handle whose
    /// operations skip the per-operation pin.
    ///
    /// Dropping the handle unpins.  See the [module docs](crate::guard) for
    /// the reclamation caveat on long-lived handles.
    pub fn pin(&self) -> Pinned<'_, K, V, R> {
        Pinned { tree: self, guard: R::pin() }
    }
}

impl<K: Ord, R: Reclaimer> Pinned<'_, K, (), R> {
    /// [`LfBst::insert`] without the per-operation pin.
    pub fn insert(&self, key: K) -> bool {
        self.tree.insert_with(key, &self.guard)
    }
}

impl<K: Ord, V: MapValue, R: Reclaimer> Pinned<'_, K, V, R> {
    /// [`LfBst::remove`] without the per-operation pin.
    pub fn remove(&self, key: &K) -> bool {
        self.tree.remove_with(key, &self.guard)
    }

    /// [`LfBst::contains`] without the per-operation pin.
    pub fn contains(&self, key: &K) -> bool {
        self.tree.contains_with(key, &self.guard)
    }

    /// [`LfBst::insert_entry`] without the per-operation pin.
    pub fn insert_entry(&self, key: K, value: V) -> bool {
        self.tree.insert_entry_with(key, value, &self.guard)
    }

    /// [`LfBst::get`] without the per-operation pin.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.tree.get_with(key, &self.guard)
    }

    /// [`LfBst::upsert`] without the per-operation pin.
    pub fn upsert(&self, key: K, value: V) -> Option<V>
    where
        V: Clone,
    {
        self.tree.upsert_with(key, value, &self.guard)
    }

    /// [`LfBst::remove_entry`] without the per-operation pin.
    pub fn remove_entry(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.tree.remove_entry_with(key, &self.guard)
    }

    /// The tree this handle operates on.
    pub fn tree(&self) -> &LfBst<K, V, R> {
        self.tree
    }

    /// The underlying guard, usable with the `*_with` entry points of any
    /// tree on the same backend (pins are domain-wide, not per-tree).
    pub fn guard(&self) -> &R::Guard {
        &self.guard
    }

    /// Momentarily unpins and re-pins the epoch so reclamation can advance.
    ///
    /// Call between batches when holding the handle for a long time; pointers
    /// read before the call must not be used after it.
    pub fn refresh(&mut self) {
        self.guard.repin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_handle_matches_plain_operations() {
        let set = LfBst::new();
        let pinned = set.pin();
        assert!(pinned.insert(3u64));
        assert!(!pinned.insert(3));
        assert!(pinned.contains(&3));
        assert!(!pinned.contains(&4));
        assert!(pinned.remove(&3));
        assert!(!pinned.remove(&3));
        drop(pinned);
        assert!(set.is_empty());
    }

    #[test]
    fn refresh_keeps_handle_usable() {
        let set = LfBst::new();
        let mut pinned = set.pin();
        for k in 0..100u64 {
            pinned.insert(k);
        }
        pinned.refresh();
        assert!(pinned.contains(&50));
        assert!(pinned.tree().contains(&50));
        // A guard from one tree works with another tree's *_with entry points.
        let other = LfBst::new();
        assert!(other.insert_with(7u64, pinned.guard()));
        assert!(other.contains_with(&7, pinned.guard()));
    }

    #[test]
    fn pinned_map_face_survives_refreshes_past_the_repin_period() {
        // A long-held handle refreshed every `REPIN_EVERY` operations, as
        // the module docs advise, keeps every map-face result exact.
        let map: LfBst<u64, u64> = LfBst::new();
        let mut pinned = map.pin();
        let n = 2 * REPIN_EVERY + 5;
        for k in 0..n {
            assert!(pinned.insert_entry(k, k));
            if (k + 1) % REPIN_EVERY == 0 {
                pinned.refresh();
            }
        }
        assert!(!pinned.insert_entry(0, 99), "a present key is not inserted again");
        let fresh = (n / 2..n + n / 2).filter(|&k| pinned.upsert(k, k + 1).is_none()).count();
        assert_eq!(fresh as u64, n / 2);
        pinned.refresh();
        assert_eq!(pinned.get(&0), Some(0));
        assert_eq!(pinned.get(&n), Some(n + 1));
        let evens = (0..n).step_by(2).filter(|k| pinned.remove_entry(k).is_some()).count();
        assert_eq!(evens as u64, n.div_ceil(2));
        drop(pinned);
        assert_eq!(map.len() as u64, n + n / 2 - n.div_ceil(2));
    }
}
