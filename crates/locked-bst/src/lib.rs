//! # locked-bst — lock-based baselines and oracles
//!
//! Lock-based implementations of the concurrent Set and Map ADTs used as
//! comparator baselines and correctness oracles in the evaluation
//! (experiments E1–E5, E13):
//!
//! * [`CoarseLockBst`] — a sequential internal BST behind a single
//!   `std::sync::Mutex`.  This is the classic coarse-grained baseline whose
//!   throughput flattens (and often collapses) as threads are added.
//! * [`RwLockBst`] — the same tree behind a `std::sync::RwLock`, so lookups
//!   proceed in parallel but any mutation serialises the structure.  This is a
//!   stand-in for the "carefully tailored locking scheme" class the paper
//!   compares against: it is extremely fast for read-dominated workloads and
//!   degrades as the update ratio grows.
//! * [`CoarseLockMap`] — a `std::collections::BTreeMap` behind a single
//!   mutex: the trivially correct ordered **map** used as the oracle for the
//!   map-conformance suites and as the lock-based comparator in the map
//!   throughput experiment (E13).
//!
//! All implement the matching `cset` traits, so the workload driver and the
//! benchmarks treat them interchangeably with the lock-free structures.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod sequential;

pub use sequential::SeqBst;

use cset::{ConcurrentMap, OrderedMap};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::{Mutex, RwLock};

/// The entries of a key-only structure: each key with its `()` value.
fn unit_entries<K>(keys: Vec<K>) -> Vec<(K, ())> {
    keys.into_iter().map(|k| (k, ())).collect()
}

/// A sequential internal BST protected by one global mutex.
///
/// # Examples
///
/// ```
/// use cset::ConcurrentSet;
/// use locked_bst::CoarseLockBst;
///
/// let set = CoarseLockBst::new();
/// assert!(set.insert(3u64));
/// assert!(set.contains(&3));
/// assert!(set.remove(&3));
/// ```
pub struct CoarseLockBst<K> {
    inner: Mutex<SeqBst<K>>,
}

impl<K: Ord> CoarseLockBst<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        CoarseLockBst { inner: Mutex::new(SeqBst::new()) }
    }

    /// Inserts `key`; returns `true` if it was not present.
    pub fn insert(&self, key: K) -> bool {
        self.inner.lock().unwrap().insert(key)
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.inner.lock().unwrap().remove(key)
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.lock().unwrap().contains(key)
    }

    /// Returns the number of keys in the set.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Returns `true` if the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord> Default for CoarseLockBst<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> fmt::Debug for CoarseLockBst<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseLockBst").finish_non_exhaustive()
    }
}

/// The Set ADT as a map with `()` values: the set face comes from `cset`'s
/// blanket impls.
impl<K: Ord + Send + Sync> ConcurrentMap<K, ()> for CoarseLockBst<K> {
    fn insert(&self, key: K, (): ()) -> bool {
        CoarseLockBst::insert(self, key)
    }

    fn get(&self, key: &K) -> Option<()> {
        CoarseLockBst::contains(self, key).then_some(())
    }

    fn upsert(&self, key: K, (): ()) -> Option<()> {
        (!CoarseLockBst::insert(self, key)).then_some(())
    }

    fn remove(&self, key: &K) -> Option<()> {
        CoarseLockBst::remove(self, key).then_some(())
    }

    fn contains_key(&self, key: &K) -> bool {
        CoarseLockBst::contains(self, key)
    }

    fn len(&self) -> usize {
        CoarseLockBst::len(self)
    }

    fn name(&self) -> &'static str {
        "coarse-mutex-bst"
    }
}

impl<K: Ord + Clone + Send + Sync> OrderedMap<K, ()> for CoarseLockBst<K> {
    fn entries_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, ())> {
        unit_entries(self.inner.lock().unwrap().keys_in_range(lo, hi))
    }

    fn entries_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<(K, ())> {
        // The pruned range walk still gathers the whole range under the lock;
        // the truncation bounds the *returned* page, which is what the
        // chunked cursor contract needs.
        let mut keys = self.inner.lock().unwrap().keys_in_range(lo, hi);
        keys.truncate(limit);
        unit_entries(keys)
    }

    fn remove_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        // One lock hold for the whole range (the default would re-lock per
        // page and per key): the atomic bulk delete a coarse lock buys.
        let mut tree = self.inner.lock().unwrap();
        let doomed = tree.keys_in_range(lo, hi);
        doomed.iter().filter(|k| tree.remove(k)).count()
    }
}

/// A sequential internal BST protected by a readers-writer lock.
///
/// Lookups take the shared lock and run concurrently; `insert` and `remove`
/// take the exclusive lock.
///
/// # Examples
///
/// ```
/// use cset::ConcurrentSet;
/// use locked_bst::RwLockBst;
///
/// let set = RwLockBst::new();
/// assert!(set.insert("a"));
/// assert!(set.contains(&"a"));
/// assert_eq!(set.len(), 1);
/// ```
pub struct RwLockBst<K> {
    inner: RwLock<SeqBst<K>>,
}

impl<K: Ord> RwLockBst<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        RwLockBst { inner: RwLock::new(SeqBst::new()) }
    }

    /// Inserts `key` under the exclusive lock; returns `true` if it was not
    /// present.
    pub fn insert(&self, key: K) -> bool {
        self.inner.write().unwrap().insert(key)
    }

    /// Removes `key` under the exclusive lock; returns `true` if it was
    /// present.
    pub fn remove(&self, key: &K) -> bool {
        self.inner.write().unwrap().remove(key)
    }

    /// Returns `true` if `key` is in the set (shared lock).
    pub fn contains(&self, key: &K) -> bool {
        self.inner.read().unwrap().contains(key)
    }

    /// Returns the number of keys in the set.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// Returns `true` if the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord> Default for RwLockBst<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> fmt::Debug for RwLockBst<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLockBst").finish_non_exhaustive()
    }
}

/// The Set ADT as a map with `()` values: the set face comes from `cset`'s
/// blanket impls.
impl<K: Ord + Send + Sync> ConcurrentMap<K, ()> for RwLockBst<K> {
    fn insert(&self, key: K, (): ()) -> bool {
        RwLockBst::insert(self, key)
    }

    fn get(&self, key: &K) -> Option<()> {
        RwLockBst::contains(self, key).then_some(())
    }

    fn upsert(&self, key: K, (): ()) -> Option<()> {
        (!RwLockBst::insert(self, key)).then_some(())
    }

    fn remove(&self, key: &K) -> Option<()> {
        RwLockBst::remove(self, key).then_some(())
    }

    fn contains_key(&self, key: &K) -> bool {
        RwLockBst::contains(self, key)
    }

    fn len(&self) -> usize {
        RwLockBst::len(self)
    }

    fn name(&self) -> &'static str {
        "rwlock-bst"
    }
}

impl<K: Ord + Clone + Send + Sync> OrderedMap<K, ()> for RwLockBst<K> {
    fn entries_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, ())> {
        unit_entries(self.inner.read().unwrap().keys_in_range(lo, hi))
    }

    fn entries_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<(K, ())> {
        let mut keys = self.inner.read().unwrap().keys_in_range(lo, hi);
        keys.truncate(limit);
        unit_entries(keys)
    }

    fn remove_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        // One exclusive hold for the whole range, so readers never observe a
        // partially deleted interval.
        let mut tree = self.inner.write().unwrap();
        let doomed = tree.keys_in_range(lo, hi);
        doomed.iter().filter(|k| tree.remove(k)).count()
    }
}

/// A `BTreeMap` behind one global mutex: the ordered-map oracle.
///
/// Every operation takes the lock, so the sequential semantics of
/// `std::collections::BTreeMap` lift directly to a linearizable concurrent
/// map — which is exactly what a conformance oracle must be.  It doubles as
/// the lock-based comparator in the map throughput experiment (E13).
///
/// # Examples
///
/// ```
/// use cset::ConcurrentMap;
/// use locked_bst::CoarseLockMap;
///
/// let map = CoarseLockMap::new();
/// assert!(map.insert(1u64, "one"));
/// assert_eq!(map.get(&1), Some("one"));
/// assert_eq!(map.upsert(1, "uno"), Some("one"));
/// assert_eq!(map.remove(&1), Some("uno"));
/// ```
pub struct CoarseLockMap<K, V> {
    inner: Mutex<BTreeMap<K, V>>,
}

impl<K: Ord, V> CoarseLockMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        CoarseLockMap { inner: Mutex::new(BTreeMap::new()) }
    }
}

impl<K: Ord, V> Default for CoarseLockMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for CoarseLockMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseLockMap").finish_non_exhaustive()
    }
}

impl<K, V> ConcurrentMap<K, V> for CoarseLockMap<K, V>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> bool {
        match self.inner.lock().unwrap().entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        self.inner.lock().unwrap().get(key).cloned()
    }

    fn upsert(&self, key: K, value: V) -> Option<V> {
        self.inner.lock().unwrap().insert(key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        self.inner.lock().unwrap().remove(key)
    }

    fn contains_key(&self, key: &K) -> bool {
        self.inner.lock().unwrap().contains_key(key)
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    fn name(&self) -> &'static str {
        "coarse-mutex-btreemap"
    }
}

impl<K, V> OrderedMap<K, V> for CoarseLockMap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn entries_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        // `BTreeMap::range` panics on inverted bounds; the workspace contract
        // is an empty result.
        if cset::range_is_empty(&lo, &hi) {
            return Vec::new();
        }
        self.inner
            .lock()
            .unwrap()
            .range((lo.cloned(), hi.cloned()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn entries_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<(K, V)> {
        if cset::range_is_empty(&lo, &hi) {
            return Vec::new();
        }
        self.inner
            .lock()
            .unwrap()
            .range((lo.cloned(), hi.cloned()))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn first_entry(&self) -> Option<(K, V)> {
        self.inner.lock().unwrap().iter().next().map(|(k, v)| (k.clone(), v.clone()))
    }

    fn last_entry(&self) -> Option<(K, V)> {
        self.inner.lock().unwrap().iter().next_back().map(|(k, v)| (k.clone(), v.clone()))
    }

    fn next_entry_after(&self, key: &K) -> Option<(K, V)> {
        self.inner
            .lock()
            .unwrap()
            .range((Bound::Excluded(key), Bound::Unbounded))
            .next()
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    fn remove_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        // Atomic under the one lock — this is what makes it the oracle for
        // the streaming sweeps: no concurrent op can see a half-done range.
        if cset::range_is_empty(&lo, &hi) {
            return 0;
        }
        let mut map = self.inner.lock().unwrap();
        let doomed: Vec<K> =
            map.range((lo.cloned(), hi.cloned())).map(|(k, _)| k.clone()).collect();
        doomed.iter().filter(|k| map.remove(k).is_some()).count()
    }

    fn retain_range(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        keep: &(dyn Fn(&K, &V) -> bool + Sync),
    ) -> usize {
        if cset::range_is_empty(&lo, &hi) {
            return 0;
        }
        let mut map = self.inner.lock().unwrap();
        let doomed: Vec<K> = map
            .range((lo.cloned(), hi.cloned()))
            .filter(|(k, v)| !keep(k, v))
            .map(|(k, _)| k.clone())
            .collect();
        doomed.iter().filter(|k| map.remove(k).is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cset::ConcurrentSet;
    use std::sync::Arc;

    fn exercise<S: ConcurrentSet<u64> + Default + 'static>() {
        let set = Arc::new(S::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        set.insert(t * 500 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(set.len(), 2000);
        for k in 0..2000 {
            assert!(set.contains(&k));
        }
        for k in 0..1000 {
            assert!(set.remove(&k));
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn coarse_lock_concurrent_contract() {
        exercise::<CoarseLockBst<u64>>();
    }

    #[test]
    fn rwlock_concurrent_contract() {
        exercise::<RwLockBst<u64>>();
    }

    #[test]
    fn names_are_distinct() {
        let a: CoarseLockBst<u64> = CoarseLockBst::new();
        let b: RwLockBst<u64> = RwLockBst::new();
        assert_ne!(ConcurrentSet::name(&a), ConcurrentSet::name(&b));
    }

    #[test]
    fn debug_impls() {
        assert!(format!("{:?}", CoarseLockBst::<u8>::new()).contains("CoarseLockBst"));
        assert!(format!("{:?}", RwLockBst::<u8>::new()).contains("RwLockBst"));
        assert!(format!("{:?}", CoarseLockMap::<u8, u8>::new()).contains("CoarseLockMap"));
    }

    #[test]
    fn coarse_lock_map_obeys_the_map_contract() {
        use cset::ConcurrentMap;
        use std::ops::Bound;
        let map: CoarseLockMap<u64, u64> = CoarseLockMap::new();
        assert!(map.is_empty());
        assert!(map.insert(2, 20));
        assert!(!map.insert(2, 21));
        assert_eq!(map.get(&2), Some(20));
        assert_eq!(map.upsert(2, 22), Some(20));
        assert_eq!(map.upsert(4, 40), None);
        assert!(map.contains_key(&4));
        assert_eq!(map.len(), 2);
        assert_eq!(
            cset::OrderedMap::entries_between(&map, Bound::Unbounded, Bound::Included(&3)),
            vec![(2, 22)]
        );
        assert_eq!(map.remove(&2), Some(22));
        assert_eq!(map.remove(&2), None);
        assert_eq!(map.name(), "coarse-mutex-btreemap");
    }

    #[test]
    fn native_remove_range_matches_the_chunked_default() {
        use cset::{OrderedMap, OrderedSet};
        use std::ops::Bound;

        fn seed_set<S: ConcurrentSet<u64> + Default>() -> S {
            let set = S::default();
            for k in 0..100 {
                set.insert(k);
            }
            set
        }

        let coarse: CoarseLockBst<u64> = seed_set();
        assert_eq!(
            OrderedSet::remove_range(&coarse, Bound::Included(&10), Bound::Excluded(&40)),
            30
        );
        assert_eq!(
            OrderedSet::remove_range(&coarse, Bound::Included(&40), Bound::Included(&10)),
            0
        );
        assert_eq!(coarse.len(), 70);

        let rw: RwLockBst<u64> = seed_set();
        assert_eq!(OrderedSet::remove_range(&rw, Bound::Excluded(&89), Bound::Unbounded), 10);
        assert_eq!(rw.len(), 90);

        let map: CoarseLockMap<u64, u64> = CoarseLockMap::new();
        for k in 0..100 {
            ConcurrentMap::insert(&map, k, k * 2);
        }
        assert_eq!(OrderedMap::remove_range(&map, Bound::Unbounded, Bound::Excluded(&50)), 50);
        assert_eq!(map.retain_range(Bound::Unbounded, Bound::Unbounded, &|k, _| k % 2 == 0), 25);
        assert_eq!(map.len(), 25);
        assert!((50..100).filter(|k| k % 2 == 0).all(|k| map.contains_key(&k)));
        assert_eq!(OrderedMap::remove_range(&map, Bound::Excluded(&10), Bound::Included(&5)), 0);
    }

    #[test]
    fn coarse_lock_map_concurrent_contract() {
        use cset::ConcurrentMap;
        let map = Arc::new(CoarseLockMap::<u64, u64>::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        map.upsert(t * 500 + i, t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(map.get(&k), Some(k / 500));
        }
    }
}
