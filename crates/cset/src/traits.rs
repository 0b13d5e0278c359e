//! The [`ConcurrentSet`] / [`OrderedSet`] and [`ConcurrentMap`] /
//! [`OrderedMap`] abstractions implemented by the structures in this
//! workspace.
//!
//! ## A set is a map with `V = ()`
//!
//! Every [`ConcurrentMap<K, ()>`](ConcurrentMap) is a [`ConcurrentSet<K>`]
//! and every [`OrderedMap<K, ()>`](OrderedMap) an [`OrderedSet<K>`], through
//! two blanket impls: a structure implements only the map traits and gets its
//! set face for free.  A structure that holds only keys implements them with
//! `V = ()` (`get` is membership, `upsert` an insert that reports presence).
//!
//! Because of the blanket impls, a direct `ConcurrentSet` impl is only
//! possible for a type with a concrete key type (such as a test double over
//! `u64`): for a type generic in `K`, coherence cannot rule out a downstream
//! `ConcurrentMap<Local, ()>` impl.  And a `V = ()` type has both the map and
//! the set methods, so a method call with both traits in scope is ambiguous:
//! import one of them, call an inherent method, or call through the trait
//! (`ConcurrentSet::insert(&set, k)`).
//!
//! ## Streaming scans
//!
//! Ordered reads come in two shapes.  The collecting methods
//! ([`OrderedMap::entries_between`], [`OrderedSet::keys_between`])
//! materialise the whole result — simple, but O(result) allocation and no way
//! to stop early.  The **cursor** methods ([`OrderedMap::scan_entries`],
//! [`OrderedSet::scan_keys`]) return a lazy ascending stream instead: items
//! are produced one at a time, so pagination, top-k and early-exit consumers
//! only pay for what they read.  Every [`OrderedMap`] method has a default in
//! terms of the others, so an implementation picks its natural primitive:
//!
//! * a structure with a native streaming traversal (such as `lfbst`'s
//!   threaded successor links) overrides `scan_entries` and inherits the
//!   collecting methods as `collect()` adapters;
//! * a structure that can only scan in bulk overrides `entries_between` (and,
//!   ideally, the bounded
//!   [`entries_between_limited`](OrderedMap::entries_between_limited)) and
//!   inherits a **chunked fallback cursor** that pages through
//!   `entries_between_limited` with an advancing lower bound.
//!
//! An implementation **must override at least one** of
//! `entries_between`/`scan_entries`; the defaults are mutually recursive.

use std::ops::Bound;

use crate::stats::StatsSnapshot;

/// Number of items a chunked fallback cursor fetches per page (see
/// [`OrderedMap::scan_entries`]'s default implementation).
///
/// Small enough that early-exit consumers over fallback cursors stay cheap,
/// large enough that the per-page scan overhead amortises.
pub const SCAN_CHUNK: usize = 64;

/// The page-size ceiling of the chunked fallback cursors: pages grow
/// geometrically from [`SCAN_CHUNK`] (cheap early exit) towards this cap
/// (amortising the per-page re-locate on long scans), so a fallback cursor's
/// transient memory is bounded by `SCAN_CHUNK_MAX` items however long the
/// scan runs.
pub const SCAN_CHUNK_MAX: usize = 4096;

/// A boxed streaming cursor over keys, ascending; see
/// [`OrderedSet::scan_keys`].
pub type KeyCursor<'a, K> = Box<dyn Iterator<Item = K> + 'a>;

/// Returns `true` if no key can satisfy both bounds: the range is inverted or
/// pinched to nothing by exclusion.
///
/// The chunked fallback cursors consult this before fetching a page, both so
/// that caller-supplied inverted ranges yield an empty stream (the convention
/// across this workspace) and so that the advancing lower bound never hands an
/// inverted range to an implementation whose bulk scan would reject it (the
/// std `BTreeMap::range` panics on `start > end`).
pub fn range_is_empty<K: Ord>(lo: &Bound<K>, hi: &Bound<K>) -> bool {
    match (lo, hi) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Included(a), Bound::Excluded(b)) | (Bound::Excluded(a), Bound::Included(b)) => {
            a >= b
        }
        (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
    }
}

/// A boxed streaming cursor over `(key, value)` entries, ascending by key;
/// see [`OrderedMap::scan_entries`].
pub type EntryCursor<'a, K, V> = Box<dyn Iterator<Item = (K, V)> + 'a>;

/// A linearizable concurrent set of keys.
///
/// All methods take `&self`: implementations are expected to be shared across
/// threads behind an `Arc` (they are `Send + Sync` by bound) and to synchronize
/// internally, either with lock-free techniques or with locks.
///
/// The three operations mirror the paper's Set ADT (`Add`, `Remove`,
/// `Contains`); the Rust-idiomatic names `insert`, `remove` and `contains` are
/// used instead.  Every `ConcurrentMap<K, ()>` implements this trait through
/// the blanket impl below (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use cset::ConcurrentSet;
///
/// fn exercise<S: ConcurrentSet<u64> + Default>() {
///     let set = S::default();
///     assert!(set.insert(1));
///     assert!(!set.insert(1));
///     assert!(set.contains(&1));
///     assert!(set.remove(&1));
///     assert!(!set.contains(&1));
/// }
/// ```
pub trait ConcurrentSet<K>: Send + Sync {
    /// Inserts `key` into the set.
    ///
    /// Returns `true` if the key was not present and has been added, `false` if
    /// the key was already present (the set is unchanged).
    fn insert(&self, key: K) -> bool;

    /// Removes `key` from the set.
    ///
    /// Returns `true` if the key was present and this call removed it, `false`
    /// if the key was absent.
    fn remove(&self, key: &K) -> bool;

    /// Returns `true` if `key` is currently in the set.
    fn contains(&self, key: &K) -> bool;

    /// Returns the number of keys in the set.
    ///
    /// For lock-free implementations this is a *quiescent* count: it is exact
    /// only when no concurrent mutations are in flight, and is intended for
    /// tests, validation and reporting rather than for synchronization.
    fn len(&self) -> usize;

    /// Returns `true` if the set holds no keys (same caveat as [`len`](Self::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short, stable identifier used by the benchmark harness when labelling
    /// result rows (e.g. `"lfbst"`, `"ellen"`, `"natarajan"`).
    fn name(&self) -> &'static str;

    /// Returns a snapshot of the operation statistics this set has recorded.
    ///
    /// The default implementation returns an all-zero snapshot, so only
    /// implementations that actually count events (such as `lfbst` when built
    /// with stats recording enabled) need to override it.  Wrappers that
    /// compose several inner sets (e.g. a sharding layer) aggregate by summing
    /// snapshots — see [`StatsSnapshot::merge`] for the contract of that sum.
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

/// A linearizable concurrent ordered map from keys to values.
///
/// This is the dictionary form of the Set ADT: the same membership structure,
/// with a value carried beside each key.  Like [`ConcurrentSet`], all methods
/// take `&self` and implementations synchronize internally.
///
/// The value-returning methods hand back **owned** values (implementations
/// typically clone the stored value), because in a lock-free structure a
/// borrowed value could outlive the entry it was read from.
///
/// A map with `V = ()` is exactly a set: the blanket impls below make every
/// `ConcurrentMap<K, ()>` a [`ConcurrentSet<K>`].
///
/// # Examples
///
/// ```
/// use cset::ConcurrentMap;
///
/// fn exercise<M: ConcurrentMap<u64, String> + Default>() {
///     let map = M::default();
///     assert!(map.insert(1, "one".into()));
///     assert!(!map.insert(1, "uno".into())); // no overwrite
///     assert_eq!(map.get(&1).as_deref(), Some("one"));
///     assert_eq!(map.upsert(1, "uno".into()).as_deref(), Some("one"));
///     assert_eq!(map.remove(&1).as_deref(), Some("uno"));
///     assert_eq!(map.get(&1), None);
/// }
/// ```
pub trait ConcurrentMap<K, V>: Send + Sync {
    /// Inserts the entry `key -> value` if `key` is absent.
    ///
    /// Returns `true` if the key was not present and the entry has been added,
    /// `false` if the key was already present (the map — including the stored
    /// value — is unchanged, and `value` is dropped).
    fn insert(&self, key: K, value: V) -> bool;

    /// Returns the value currently associated with `key`, if any.
    fn get(&self, key: &K) -> Option<V>;

    /// Inserts or replaces the entry `key -> value`.
    ///
    /// Returns the previous value if the key was present (the value was
    /// replaced in place), or `None` if a fresh entry was inserted.
    fn upsert(&self, key: K, value: V) -> Option<V>;

    /// Removes `key`, returning the evicted value if the key was present.
    fn remove(&self, key: &K) -> Option<V>;

    /// Returns `true` if `key` currently has an entry.
    ///
    /// Implementations with a cheaper membership probe than a value read
    /// should override the default.
    fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns the number of entries (same quiescent caveat as
    /// [`ConcurrentSet::len`]).
    fn len(&self) -> usize;

    /// Returns `true` if the map holds no entries (same caveat as
    /// [`len`](Self::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short, stable identifier used when labelling benchmark rows.
    fn name(&self) -> &'static str;

    /// Operation statistics snapshot; all-zero by default, as for
    /// [`ConcurrentSet::stats`].
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

/// A [`ConcurrentMap`] that additionally supports ordered range scans over its
/// entries.
///
/// The scan contract matches [`OrderedSet::keys_between`]: **weakly
/// consistent** under concurrent mutation, exact in a quiescent state, keys
/// strictly ascending.  Each value is the one observed for its key at the
/// moment the scan visited it.
///
/// Every method has a default implementation in terms of the others (see the
/// [module docs](self) on streaming scans); an implementation must override at
/// least one of [`entries_between`](Self::entries_between) /
/// [`scan_entries`](Self::scan_entries).
pub trait OrderedMap<K, V>: ConcurrentMap<K, V> {
    /// Collects the `(key, value)` entries between `lo` and `hi`, in ascending
    /// key order.
    fn entries_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)>
    where
        K: Clone + Ord,
    {
        self.scan_entries(lo, hi).collect()
    }

    /// Collects at most `limit` entries between `lo` and `hi`, smallest keys
    /// first.
    ///
    /// The default collects the full range and truncates; implementations
    /// that can stop early (a streaming cursor, a `range().take(limit)`)
    /// should override it — the chunked fallback cursor behind
    /// [`scan_entries`](Self::scan_entries) pages through this method, so its
    /// memory bound is only as good as this override.
    fn entries_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<(K, V)>
    where
        K: Clone + Ord,
    {
        let mut entries = self.entries_between(lo, hi);
        entries.truncate(limit);
        entries
    }

    /// Returns a lazy ascending cursor over the entries between `lo` and `hi`.
    ///
    /// The stream is **weakly consistent** exactly like
    /// [`entries_between`](Self::entries_between), with one addition worth
    /// spelling out for long scans: every entry whose key was present for the
    /// *entire* duration of the scan appears, and no key absent for the entire
    /// duration appears.  The default implementation is a chunked fallback: it
    /// repeatedly fetches [`SCAN_CHUNK`]-sized pages through
    /// [`entries_between_limited`](Self::entries_between_limited), advancing
    /// the lower bound past the last key of each page.
    fn scan_entries<'a>(&'a self, lo: Bound<&K>, hi: Bound<&K>) -> EntryCursor<'a, K, V>
    where
        K: Clone + Ord + 'a,
        V: 'a,
    {
        chunked_scan_entries(self, lo, hi)
    }

    /// Returns the entry with the smallest key, if any (weakly consistent).
    fn first_entry(&self) -> Option<(K, V)>
    where
        K: Clone + Ord,
    {
        self.entries_between_limited(Bound::Unbounded, Bound::Unbounded, 1).pop()
    }

    /// Returns the entry with the largest key, if any (weakly consistent).
    ///
    /// The default scans the whole map; implementations with a rightmost-path
    /// walk or a `next_back()` should override it.
    fn last_entry(&self) -> Option<(K, V)>
    where
        K: Clone + Ord,
    {
        self.entries_between(Bound::Unbounded, Bound::Unbounded).pop()
    }

    /// Returns the entry with the smallest key strictly greater than `key`,
    /// if any (weakly consistent) — the successor query pagination builds on.
    fn next_entry_after(&self, key: &K) -> Option<(K, V)>
    where
        K: Clone + Ord,
    {
        self.entries_between_limited(Bound::Excluded(key), Bound::Unbounded, 1).pop()
    }

    /// Removes every entry whose key lies between `lo` and `hi`; returns how
    /// many entries this call removed.
    ///
    /// **Linearizable per key, weakly consistent as a whole**: each key's
    /// removal is an ordinary [`remove`](ConcurrentMap::remove) (a concurrent
    /// single-key remove and the sweep agree on one winner), but keys
    /// inserted into the range while the sweep runs may or may not be caught.
    /// Empty and reversed ranges remove nothing.  The default is the
    /// keep-nothing [`retain_range`](Self::retain_range), a chunked
    /// page-then-remove loop; implementations with a native bulk delete (a
    /// streaming sweep, a whole-shard teardown) should override it.
    ///
    /// The `Send + Sync` key bound exists so sharded implementations can fan
    /// the sweep out across shards on scoped threads.
    fn remove_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize
    where
        K: Clone + Ord + Send + Sync,
    {
        self.retain_range(lo, hi, &|_, _| false)
    }

    /// Removes every entry between `lo` and `hi` for which `keep` returns
    /// `false`; returns how many entries were removed.  This is the TTL-style
    /// eviction sweep: `keep` judges the value *observed by the sweep's scan*
    /// (a concurrent upsert between the scan and the removal does not re-run
    /// the predicate — the usual weak-consistency contract).
    ///
    /// The predicate is a `dyn` reference (not a generic parameter) so the
    /// trait stays dyn-compatible, and `Sync` so sharded implementations can
    /// share it across scoped threads.
    fn retain_range(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        keep: &(dyn Fn(&K, &V) -> bool + Sync),
    ) -> usize
    where
        K: Clone + Ord + Send + Sync,
    {
        let mut removed = 0usize;
        let mut lo = lo.cloned();
        let mut chunk = SCAN_CHUNK;
        loop {
            if range_is_empty(&lo.as_ref(), &hi) {
                return removed;
            }
            let page = self.entries_between_limited(lo.as_ref(), hi, chunk);
            for (key, value) in &page {
                if !keep(key, value) && self.remove(key).is_some() {
                    removed += 1;
                }
            }
            if page.len() < chunk {
                return removed;
            }
            lo = Bound::Excluded(page.last().expect("full page is non-empty").0.clone());
            chunk = (chunk * 2).min(SCAN_CHUNK_MAX);
        }
    }

    /// [`retain_range`](Self::retain_range) over the whole map: keep exactly
    /// the entries the predicate approves of.
    fn retain(&self, keep: &(dyn Fn(&K, &V) -> bool + Sync)) -> usize
    where
        K: Clone + Ord + Send + Sync,
    {
        self.retain_range(Bound::Unbounded, Bound::Unbounded, keep)
    }
}

/// Returns a chunked-paging cursor over `map`, regardless of how `map`'s own
/// [`scan_entries`](OrderedMap::scan_entries) is implemented: pages of at
/// most [`SCAN_CHUNK`] entries are fetched through
/// [`entries_between_limited`](OrderedMap::entries_between_limited), and
/// **no internal resource outlives a page fetch** — between pulls the cursor
/// holds only owned entries.
///
/// Composing layers use this when a long-lived native cursor would hold a
/// resource hostage to the consumer's pacing: e.g. a sharding layer merging
/// many per-shard streams, where a structure's own streaming cursor may pin
/// an epoch-reclamation guard until that stream is reached.
pub fn chunked_scan_entries<'a, K, V, M>(
    map: &'a M,
    lo: Bound<&K>,
    hi: Bound<&K>,
) -> EntryCursor<'a, K, V>
where
    M: OrderedMap<K, V> + ?Sized,
    K: Clone + Ord + 'a,
    V: 'a,
{
    Box::new(ChunkedPager {
        map,
        lo: lo.cloned(),
        hi: hi.cloned(),
        page: Vec::new().into_iter(),
        chunk: SCAN_CHUNK,
        exhausted: false,
    })
}

/// The chunked fallback cursor behind [`chunked_scan_entries`]: pages of at
/// most [`SCAN_CHUNK`] entries fetched through the map's
/// `entries_between_limited`, lower bound advanced past each full page's last
/// key — one key clone per page, not per item.
struct ChunkedPager<'a, K, V, M: ?Sized> {
    map: &'a M,
    lo: Bound<K>,
    hi: Bound<K>,
    page: std::vec::IntoIter<(K, V)>,
    /// Next page size: starts at [`SCAN_CHUNK`], doubles after every full
    /// page up to [`SCAN_CHUNK_MAX`].
    chunk: usize,
    exhausted: bool,
}

impl<K, V, M> Iterator for ChunkedPager<'_, K, V, M>
where
    K: Clone + Ord,
    M: OrderedMap<K, V> + ?Sized,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if let Some(item) = self.page.next() {
                return Some(item);
            }
            if self.exhausted {
                return None;
            }
            if range_is_empty(&self.lo, &self.hi) {
                self.exhausted = true;
                return None;
            }
            let page =
                self.map.entries_between_limited(self.lo.as_ref(), self.hi.as_ref(), self.chunk);
            if page.len() < self.chunk {
                // A short page means the range is drained; remember that so a
                // concurrent insert behind the cursor cannot revive it.
                self.exhausted = true;
            } else if let Some((last, _)) = page.last() {
                // A full page will be followed by another fetch: resume
                // strictly after its last key, with a geometrically larger
                // page to amortise the fetch's re-locate cost.
                self.lo = Bound::Excluded(last.clone());
                self.chunk = (self.chunk * 2).min(SCAN_CHUNK_MAX);
            }
            self.page = page.into_iter();
            if self.page.len() == 0 {
                return None;
            }
        }
    }
}

/// A [`ConcurrentSet`] that additionally supports ordered range scans: the
/// set face of an [`OrderedMap`] with `()` values.
///
/// The scan contract matches the snapshots of the underlying structures:
/// **weakly consistent** under concurrent mutation (keys inserted or removed
/// during the scan may or may not be observed), exact in a quiescent state,
/// and always **strictly ascending**.
///
/// The bounds are passed as [`Bound`] references rather than a generic
/// `RangeBounds` parameter so that composed implementations (such as a
/// sharding layer fanning one scan out over many inner maps) can forward them
/// without re-materialising range types.
///
/// Every ordered structure in this workspace implements [`OrderedMap`] (a
/// key-only one with `V = ()`), and the blanket impl below implements this
/// trait for all of them: each method is the key projection of its entry
/// twin, so an ordered structure has one scan implementation, not two.
pub trait OrderedSet<K>: ConcurrentSet<K> {
    /// Collects the keys between `lo` and `hi`, in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::ops::Bound;
    /// use cset::OrderedSet;
    ///
    /// fn scan_all<S: OrderedSet<u64>>(set: &S) -> Vec<u64> {
    ///     set.keys_between(Bound::Unbounded, Bound::Unbounded)
    /// }
    /// ```
    fn keys_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K>
    where
        K: Clone + Ord;

    /// Collects at most `limit` keys between `lo` and `hi`, smallest first.
    fn keys_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<K>
    where
        K: Clone + Ord;

    /// Returns a lazy ascending cursor over the keys between `lo` and `hi`,
    /// with the long-scan contract of [`OrderedMap::scan_entries`]: every key
    /// present for the *entire* duration of the scan appears, no key absent
    /// for the entire duration appears.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::ops::Bound;
    /// use cset::OrderedSet;
    ///
    /// // Top-k without materialising the tail: only k items are produced.
    /// fn top_k<S: OrderedSet<u64>>(set: &S, k: usize) -> Vec<u64> {
    ///     set.scan_keys(Bound::Unbounded, Bound::Unbounded).take(k).collect()
    /// }
    /// ```
    fn scan_keys<'a>(&'a self, lo: Bound<&K>, hi: Bound<&K>) -> KeyCursor<'a, K>
    where
        K: Clone + Ord + 'a;

    /// Returns the smallest key, if any (weakly consistent).
    fn first(&self) -> Option<K>
    where
        K: Clone + Ord;

    /// Returns the largest key, if any (weakly consistent).
    fn last(&self) -> Option<K>
    where
        K: Clone + Ord;

    /// Returns the smallest key strictly greater than `key`, if any (weakly
    /// consistent) — the successor query pagination builds on.
    fn next_after(&self, key: &K) -> Option<K>
    where
        K: Clone + Ord;

    /// Removes every key between `lo` and `hi`; returns how many keys this
    /// call removed.  The contract is [`OrderedMap::remove_range`]'s:
    /// linearizable per key, weakly consistent as a whole, empty and
    /// reversed ranges remove nothing.
    fn remove_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize
    where
        K: Clone + Ord + Send + Sync;
}

/// The set face of a map with `()` values.
///
/// A generic call through `ConcurrentSet` on such a map monomorphises to the
/// map method with a unit argument or result, which inlines away: `insert`
/// is `ConcurrentMap::insert(k, ())`, `remove` is `ConcurrentMap::remove`'s
/// `is_some()`.
///
/// # Examples
///
/// ```
/// use cset::{ConcurrentMap, ConcurrentSet};
/// use std::collections::BTreeMap;
/// use std::sync::Mutex;
///
/// #[derive(Default)]
/// struct MutexMap(Mutex<BTreeMap<u64, ()>>);
/// impl ConcurrentMap<u64, ()> for MutexMap {
///     fn insert(&self, k: u64, v: ()) -> bool {
///         let mut m = self.0.lock().unwrap();
///         if m.contains_key(&k) { false } else { m.insert(k, v); true }
///     }
///     fn get(&self, k: &u64) -> Option<()> { self.0.lock().unwrap().get(k).copied() }
///     fn upsert(&self, k: u64, v: ()) -> Option<()> { self.0.lock().unwrap().insert(k, v) }
///     fn remove(&self, k: &u64) -> Option<()> { self.0.lock().unwrap().remove(k) }
///     fn len(&self) -> usize { self.0.lock().unwrap().len() }
///     fn name(&self) -> &'static str { "mutex-btreemap" }
/// }
///
/// fn exercise<S: ConcurrentSet<u64>>(set: &S) {
///     assert!(set.insert(7));
///     assert!(set.contains(&7));
///     assert!(set.remove(&7));
/// }
/// exercise(&MutexMap::default());
/// ```
impl<K, M: ConcurrentMap<K, ()>> ConcurrentSet<K> for M {
    #[inline]
    fn insert(&self, key: K) -> bool {
        ConcurrentMap::insert(self, key, ())
    }

    #[inline]
    fn remove(&self, key: &K) -> bool {
        ConcurrentMap::remove(self, key).is_some()
    }

    #[inline]
    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn len(&self) -> usize {
        ConcurrentMap::len(self)
    }

    fn name(&self) -> &'static str {
        ConcurrentMap::name(self)
    }

    fn stats(&self) -> StatsSnapshot {
        ConcurrentMap::stats(self)
    }
}

/// The ordered set face of an ordered map with `()` values: every method
/// forwards to its entry twin, so a map's native cursor, successor walk and
/// bulk sweep serve the set face too.
impl<K, M: OrderedMap<K, ()>> OrderedSet<K> for M {
    fn keys_between(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K>
    where
        K: Clone + Ord,
    {
        self.entries_between(lo, hi).into_iter().map(|(k, ())| k).collect()
    }

    fn keys_between_limited(&self, lo: Bound<&K>, hi: Bound<&K>, limit: usize) -> Vec<K>
    where
        K: Clone + Ord,
    {
        self.entries_between_limited(lo, hi, limit).into_iter().map(|(k, ())| k).collect()
    }

    fn scan_keys<'a>(&'a self, lo: Bound<&K>, hi: Bound<&K>) -> KeyCursor<'a, K>
    where
        K: Clone + Ord + 'a,
    {
        Box::new(self.scan_entries(lo, hi).map(|(k, ())| k))
    }

    fn first(&self) -> Option<K>
    where
        K: Clone + Ord,
    {
        self.first_entry().map(|(k, ())| k)
    }

    fn last(&self) -> Option<K>
    where
        K: Clone + Ord,
    {
        self.last_entry().map(|(k, ())| k)
    }

    fn next_after(&self, key: &K) -> Option<K>
    where
        K: Clone + Ord,
    {
        self.next_entry_after(key).map(|(k, ())| k)
    }

    fn remove_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize
    where
        K: Clone + Ord + Send + Sync,
    {
        OrderedMap::remove_range(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A trivial direct `ConcurrentSet` impl over a concrete key type, used to
    /// demonstrate the contract.
    #[derive(Default)]
    struct MutexSet {
        inner: Mutex<BTreeSet<u64>>,
    }

    impl ConcurrentSet<u64> for MutexSet {
        fn insert(&self, key: u64) -> bool {
            self.inner.lock().unwrap().insert(key)
        }
        fn remove(&self, key: &u64) -> bool {
            self.inner.lock().unwrap().remove(key)
        }
        fn contains(&self, key: &u64) -> bool {
            self.inner.lock().unwrap().contains(key)
        }
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "mutex-btreeset"
        }
    }

    #[test]
    fn reference_implementation_obeys_contract() {
        let set = MutexSet::default();
        assert!(set.is_empty());
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.contains(&3));
        assert!(!set.contains(&4));
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        assert!(set.remove(&3));
        assert!(!set.remove(&3));
        assert!(set.is_empty());
        assert_eq!(set.name(), "mutex-btreeset");
    }

    #[test]
    fn trait_object_usable() {
        let set = MutexSet::default();
        let dyn_set: &dyn ConcurrentSet<u64> = &set;
        assert!(dyn_set.insert(10));
        assert!(dyn_set.contains(&10));
    }

    /// A reference map that implements only the bulk `entries_between`, so
    /// every other `OrderedMap` method (and, with `V = ()`, the whole set
    /// face) runs on the trait defaults.
    #[derive(Default)]
    struct MutexMap<V> {
        inner: Mutex<BTreeMap<u64, V>>,
        /// Bulk scans run, to pin the chunked cursor's laziness.
        fetches: AtomicUsize,
    }

    impl<V: Clone + Send + Sync> ConcurrentMap<u64, V> for MutexMap<V> {
        fn insert(&self, key: u64, value: V) -> bool {
            match self.inner.lock().unwrap().entry(key) {
                std::collections::btree_map::Entry::Occupied(_) => false,
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value);
                    true
                }
            }
        }
        fn get(&self, key: &u64) -> Option<V> {
            self.inner.lock().unwrap().get(key).cloned()
        }
        fn upsert(&self, key: u64, value: V) -> Option<V> {
            self.inner.lock().unwrap().insert(key, value)
        }
        fn remove(&self, key: &u64) -> Option<V> {
            self.inner.lock().unwrap().remove(key)
        }
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "mutex-btreemap"
        }
    }

    impl<V: Clone + Send + Sync> OrderedMap<u64, V> for MutexMap<V> {
        fn entries_between(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, V)> {
            if range_is_empty(&lo, &hi) {
                return Vec::new();
            }
            self.fetches.fetch_add(1, Ordering::Relaxed);
            self.inner
                .lock()
                .unwrap()
                .range((lo.cloned(), hi.cloned()))
                .map(|(&k, v)| (k, v.clone()))
                .collect()
        }
    }

    /// A unit-valued `MutexMap` holding `keys`: a set through the blanket
    /// impls.
    fn unit_map(keys: impl IntoIterator<Item = u64>) -> MutexMap<()> {
        let map = MutexMap::default();
        for k in keys {
            ConcurrentMap::insert(&map, k, ());
        }
        map
    }

    #[test]
    fn map_reference_implementation_obeys_contract() {
        let map = MutexMap::<u64>::default();
        assert!(map.is_empty());
        assert!(map.insert(3, 30));
        assert!(!map.insert(3, 31), "insert must not overwrite");
        assert_eq!(map.get(&3), Some(30));
        assert!(map.contains_key(&3));
        assert!(!map.contains_key(&4));
        assert_eq!(map.upsert(3, 33), Some(30));
        assert_eq!(map.upsert(4, 40), None);
        assert_eq!(map.len(), 2);
        assert_eq!(map.entries_between(Bound::Unbounded, Bound::Unbounded), vec![(3, 33), (4, 40)]);
        assert_eq!(map.remove(&3), Some(33));
        assert_eq!(map.remove(&3), None);
        assert_eq!(map.stats(), StatsSnapshot::default());
        assert_eq!(map.name(), "mutex-btreemap");
    }

    #[test]
    fn chunked_fallback_cursor_matches_bulk_scan() {
        // More than two SCAN_CHUNK pages, odd stride so page edges are keys.
        let set = unit_map((0..(3 * SCAN_CHUNK as u64 + 17)).map(|i| i * 3));
        for (lo, hi) in [
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(&10u64), Bound::Excluded(&500u64)),
            (Bound::Excluded(&9u64), Bound::Included(&9u64)),
            (Bound::Included(&400u64), Bound::Included(&100u64)), // reversed
        ] {
            let bulk = set.keys_between(lo, hi);
            let streamed: Vec<u64> = set.scan_keys(lo, hi).collect();
            assert_eq!(streamed, bulk, "bounds {lo:?}..{hi:?}");
        }
        // The limited default truncates consistently with the bulk scan.
        assert_eq!(
            set.keys_between_limited(Bound::Unbounded, Bound::Unbounded, 5),
            set.keys_between(Bound::Unbounded, Bound::Unbounded)[..5].to_vec()
        );
    }

    #[test]
    fn successor_query_defaults() {
        let set = unit_map([]);
        assert_eq!(set.first(), None);
        assert_eq!(set.last(), None);
        assert_eq!(set.next_after(&0), None);
        let set = unit_map([30, 10, 20]);
        assert_eq!(set.first(), Some(10));
        assert_eq!(set.last(), Some(30));
        assert_eq!(set.next_after(&10), Some(20));
        assert_eq!(set.next_after(&15), Some(20));
        assert_eq!(set.next_after(&30), None);
    }

    #[test]
    fn chunked_cursor_is_lazy() {
        let set = unit_map(0..10_000);
        let top: Vec<u64> = set.scan_keys(Bound::Unbounded, Bound::Unbounded).take(5).collect();
        assert_eq!(top, vec![0, 1, 2, 3, 4]);
        assert_eq!(set.fetches.load(Ordering::Relaxed), 1, "an early exit fetches one page");
        // A full drain pages on, with geometrically growing pages.
        assert_eq!(set.scan_keys(Bound::Unbounded, Bound::Unbounded).count(), 10_000);
        let pages = set.fetches.load(Ordering::Relaxed) - 1;
        assert!((2..=10).contains(&pages), "{pages} pages for 10k keys");
    }

    #[test]
    fn default_remove_range_pages_through_the_whole_range() {
        // Spans several growing pages so the advancing lower bound is hit.
        let n = 3 * SCAN_CHUNK as u64 + 17;
        let set = unit_map(0..n);
        let set: &dyn OrderedSet<u64> = &set;
        assert_eq!(
            set.remove_range(Bound::Included(&5), Bound::Excluded(&(n - 5))),
            n as usize - 10
        );
        assert_eq!(set.len(), 10);
        // Empty and reversed ranges are no-ops.
        assert_eq!(set.remove_range(Bound::Excluded(&0), Bound::Excluded(&1)), 0);
        assert_eq!(set.remove_range(Bound::Included(&4), Bound::Included(&1)), 0);
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn default_map_remove_range_and_retain() {
        let map = MutexMap::<u64>::default();
        let n = 2 * SCAN_CHUNK as u64 + 9;
        for k in 0..n {
            map.insert(k, k * 10);
        }
        assert_eq!(map.remove_range(Bound::Included(&0), Bound::Excluded(&10)), 10);
        assert_eq!(map.len() as u64, n - 10);
        // Evict by value: the TTL shape.
        let evicted = map.retain(&|_, v| *v >= 500);
        assert_eq!(evicted, 40, "keys 10..50 have values below 500");
        assert!(map.get(&49).is_none());
        assert_eq!(map.get(&50), Some(500));
        // A range-restricted retain leaves the outside untouched.
        let evicted =
            map.retain_range(Bound::Included(&60), Bound::Excluded(&70), &|k, _| k % 2 == 0);
        assert_eq!(evicted, 5);
        assert_eq!(map.get(&61), None);
        assert_eq!(map.get(&71), Some(710));
    }

    #[test]
    fn bulk_mutations_are_dyn_dispatchable() {
        let set = unit_map(0..10);
        let dyn_set: &dyn OrderedSet<u64> = &set;
        assert_eq!(dyn_set.remove_range(Bound::Included(&0), Bound::Excluded(&5)), 5);
        let map = MutexMap::<u64>::default();
        for k in 0..10u64 {
            map.insert(k, k);
        }
        let dyn_map: &dyn OrderedMap<u64, u64> = &map;
        assert_eq!(dyn_map.retain(&|k, _| k % 2 == 0), 5);
        assert_eq!(dyn_map.remove_range(Bound::Unbounded, Bound::Unbounded), 5);
        assert!(map.is_empty());
    }

    #[test]
    fn map_as_set_bridges_the_full_set_contract() {
        // Generic set code sees a unit-valued map through the blanket impls.
        fn check<S: OrderedSet<u64>>(set: &S) {
            assert!(set.is_empty());
            assert!(set.insert(3));
            assert!(!set.insert(3));
            assert!(set.contains(&3));
            assert_eq!(set.len(), 1);
            assert!(set.remove(&3));
            assert!(!set.remove(&3));
            assert_eq!(set.name(), "mutex-btreemap");
            // The ordered face survives the bridge too.
            for k in [5u64, 1, 9] {
                set.insert(k);
            }
            assert_eq!(set.keys_between(Bound::Unbounded, Bound::Excluded(&9)), vec![1, 5]);
            assert_eq!(set.first(), Some(1));
            assert_eq!(set.last(), Some(9));
            assert_eq!(set.next_after(&1), Some(5));
            assert_eq!(set.remove_range(Bound::Included(&1), Bound::Included(&5)), 2);
        }
        let map = unit_map([]);
        check(&map);
        assert_eq!(map.get(&9), Some(()));
        assert_eq!(ConcurrentMap::len(&map), 1);
    }
}
