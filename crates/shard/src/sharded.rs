//! The [`Sharded`] facade: one logical map (or set) backed by many inner maps.

use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Mutex;

use cset::{ConcurrentMap, LoadTally, OrderedMap, StatsSnapshot};

use crate::router::{BoundaryRouter, ShardRouter};

/// Interns a shard configuration label so [`ConcurrentMap::name`] can return
/// `&'static str`.  One short string leaks per **distinct** configuration
/// (inner name × shard count × policy), which is bounded and tiny.
///
/// Exposed so harnesses labelling result rows use the exact same string a
/// [`Sharded`] of that configuration reports from `name()`.
///
/// # Examples
///
/// ```
/// assert_eq!(shard::config_name("lfbst", 4, "hash"), "lfbstx4-hash");
/// ```
pub fn config_name(inner: &'static str, shards: usize, policy: &'static str) -> &'static str {
    static NAMES: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let key = format!("{inner}x{shards}-{policy}");
    let mut guard = NAMES.lock().expect("shard name table poisoned");
    let table = guard.get_or_insert_with(HashMap::new);
    if let Some(&name) = table.get(&key) {
        return name;
    }
    let leaked: &'static str = Box::leak(key.clone().into_boxed_str());
    table.insert(key, leaked);
    leaked
}

/// A key-space-partitioned concurrent map, and through `cset`'s blanket
/// impls a concurrent set whenever the inner maps carry `()` values.
///
/// `Sharded` owns a boxed slice of inner maps and a [`ShardRouter`]; every
/// operation is forwarded to the shard the router selects for its key.  Since
/// each key always lands on the same shard, per-key linearizability of the
/// inner maps lifts directly to the whole: `Sharded` is a linearizable map
/// (and set) whenever its inner maps are.
///
/// What sharding buys:
///
/// * **Contention isolation** — the upper levels of a single tree are a shared
///   hot path touched by every operation; with `N` shards an operation only
///   contends with the `1/N` of traffic routed to its shard.
/// * **Smaller structures** — each shard holds `1/N` of the keys, shortening
///   search paths (`log(n/N)` vs `log n`).
///
/// Cross-shard aggregate queries (`len`, `stats`) sum shard-local values; see
/// [`StatsSnapshot::merge`] for the exact/monotone contract of such sums.
/// With the order-preserving [`BoundaryRouter`], ordered range scans remain
/// available: shards are key-disjoint and ascending, so a scan is the lazy
/// concatenation of the shards' own cursors — see [`OrderedMap::scan_entries`]
/// (and, on the set face, [`OrderedSet::scan_keys`](cset::OrderedSet::scan_keys)).
///
/// A `V = ()` composition implements both the map and the set traits, so a
/// method call with both traits in scope is ambiguous: import one of them,
/// or call through the trait (`ConcurrentSet::insert(&set, k)`).
///
/// # Examples
///
/// ```
/// use cset::{ConcurrentSet, OrderedSet};
/// use lfbst::LfBst;
/// use shard::{BoundaryRouter, Sharded};
/// use std::ops::Bound;
///
/// // The set face: inner trees with `()` values.
/// let set = Sharded::new(BoundaryRouter::covering(4, 100), |_| LfBst::<u64>::new());
/// for k in [5u64, 30, 55, 80] {
///     assert!(set.insert(k));
/// }
/// assert!(set.contains(&55));
/// assert_eq!(set.keys_between(Bound::Included(&10), Bound::Included(&80)), vec![30, 55, 80]);
/// // Top-2 without touching the rest of the key space.
/// let top: Vec<u64> = set.scan_keys(Bound::Included(&10), Bound::Unbounded).take(2).collect();
/// assert_eq!(top, vec![30, 55]);
/// ```
///
/// ```
/// use cset::ConcurrentMap;
/// use lfbst::LfBst;
/// use shard::{HashRouter, Sharded};
///
/// // The map face: inner trees carrying values.
/// let map = Sharded::new(HashRouter::new(4), |_| LfBst::<u64, u64>::new());
/// assert!(map.insert(7, 70));
/// assert_eq!(map.get(&7), Some(70));
/// assert_eq!(map.upsert(7, 71), Some(70));
/// assert_eq!(map.remove(&7), Some(71));
/// ```
pub struct Sharded<S, R> {
    router: R,
    shards: Box<[S]>,
    /// Always-on per-shard op tallies (one padded relaxed counter per shard),
    /// bumped by every point operation regardless of the `stats` feature —
    /// the live load signal hot-shard detection reads.
    loads: Box<[LoadTally]>,
    name: &'static str,
}

/// The name the map-shaped compositions were built under; the same type as
/// [`Sharded`].
pub type ShardedMap<S, R> = Sharded<S, R>;

impl<S, R> Sharded<S, R> {
    /// Builds one inner map per shard with `make(shard_index)`.
    ///
    /// The router decides the shard count; `make` lets callers configure each
    /// inner map (or build heterogeneous ones for testing).
    pub fn new<K, V>(router: R, make: impl FnMut(usize) -> S) -> Self
    where
        S: ConcurrentMap<K, V>,
        R: ShardRouter<K>,
    {
        let shards: Box<[S]> = (0..router.shard_count()).map(make).collect();
        assert!(!shards.is_empty(), "router must declare at least one shard");
        let name = config_name(shards[0].name(), shards.len(), router.policy_name());
        let loads = (0..shards.len()).map(|_| LoadTally::new()).collect();
        Sharded { router, shards, loads, name }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (diagnostics and tests).
    pub fn shard(&self, i: usize) -> &S {
        &self.shards[i]
    }

    /// The router in use.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Per-shard quiescent sizes, in shard order.
    ///
    /// Useful for observing load balance; the sum is
    /// [`len`](ConcurrentMap::len).
    pub fn len_per_shard<K, V>(&self) -> Vec<usize>
    where
        S: ConcurrentMap<K, V>,
    {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Per-shard operation tallies since construction (or since the last
    /// [`take_loads`](Self::take_loads)), in shard order.
    ///
    /// Every point operation (through the map or the set face) bumps its
    /// target shard's relaxed counter, independently of the `stats` cargo
    /// feature, so this is always live.  Cross-shard scans are not counted:
    /// the signal is per-key routing pressure, which is what hot-shard
    /// detection and rebalancing act on.
    pub fn load_per_shard(&self) -> Vec<u64> {
        self.loads.iter().map(LoadTally::get).collect()
    }

    /// Reads **and resets** the per-shard tallies — the rebalancer's windowed
    /// load sample (consecutive calls never double count an op).
    pub fn take_loads(&self) -> Vec<u64> {
        self.loads.iter().map(LoadTally::take).collect()
    }

    /// The shard `key` routes to, with its load tally bumped.
    #[inline]
    fn route<K>(&self, key: &K) -> &S
    where
        R: ShardRouter<K>,
    {
        let shard = self.router.route(key);
        self.loads[shard].bump();
        &self.shards[shard]
    }
}

impl<K, V, S, R> ConcurrentMap<K, V> for Sharded<S, R>
where
    S: ConcurrentMap<K, V>,
    R: ShardRouter<K>,
{
    #[inline]
    fn insert(&self, key: K, value: V) -> bool {
        self.route(&key).insert(key, value)
    }

    #[inline]
    fn get(&self, key: &K) -> Option<V> {
        self.route(key).get(key)
    }

    #[inline]
    fn upsert(&self, key: K, value: V) -> Option<V> {
        self.route(&key).upsert(key, value)
    }

    #[inline]
    fn remove(&self, key: &K) -> Option<V> {
        self.route(key).remove(key)
    }

    #[inline]
    fn contains_key(&self, key: &K) -> bool {
        self.route(key).contains_key(key)
    }

    /// Sum of the per-shard quiescent counts.
    ///
    /// Each shard's `len` is exact at quiescence, so the sum is too; while
    /// mutations are in flight the sum is a monotone-per-shard approximation
    /// with the same caveat as any single shard's `len`.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    /// Merged operation statistics across all shards: shard snapshots are
    /// taken one after another and summed, exact at quiescence and
    /// component-wise monotone under concurrency (see
    /// [`StatsSnapshot::merge`]).
    fn stats(&self) -> StatsSnapshot {
        self.shards.iter().map(|s| s.stats()).sum()
    }
}

impl<S> Sharded<S, BoundaryRouter> {
    /// The shards holding the keys of `[lo, hi]`, in key order (empty for an
    /// inverted or pinched range).
    fn span(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> &[S] {
        self.router.span(lo, hi).map_or(&[], |span| &self.shards[span])
    }

    /// Runs `sweep` on every shard of the span `[lo, hi]` and sums the
    /// counts.  Shards hold disjoint key sets, so each can be handed the full
    /// bounds and the sum is exact.  A multi-shard span fans out on scoped
    /// threads; a span of one shard stays on the calling thread.
    fn sweep_span(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        sweep: impl Fn(&S) -> usize + Sync,
    ) -> usize
    where
        S: Sync,
    {
        match self.span(lo, hi) {
            [] => 0,
            [shard] => sweep(shard),
            span => {
                let sweep = &sweep;
                std::thread::scope(|scope| {
                    let handles: Vec<_> =
                        span.iter().map(|shard| scope.spawn(move || sweep(shard))).collect();
                    handles.into_iter().map(|h| h.join().expect("shard sweep panicked")).sum()
                })
            }
        }
    }
}

impl<V, S> OrderedMap<u64, V> for Sharded<S, BoundaryRouter>
where
    S: OrderedMap<u64, V>,
{
    /// A streaming scan: the shards of [`BoundaryRouter::span`] are
    /// key-disjoint and ascending, so concatenating their own cursors, opened
    /// one at a time, yields one globally ascending scan.  A shard's cursor
    /// opens only once the previous one has drained and been dropped, so an
    /// early-exit scan never touches later shards, and a half-consumed scan
    /// holds what one open shard cursor holds between pulls (for `LfBst`,
    /// one repinning `RangeIter` pin) — the contract `ElasticMap`'s scans
    /// keep.
    fn scan_entries<'a>(&'a self, lo: Bound<&u64>, hi: Bound<&u64>) -> cset::EntryCursor<'a, u64, V>
    where
        V: 'a,
    {
        let span = self.span(lo, hi);
        let (lo, hi) = (lo.cloned(), hi.cloned());
        Box::new(span.iter().flat_map(move |s| s.scan_entries(lo.as_ref(), hi.as_ref())))
    }

    fn entries_between_limited(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        limit: usize,
    ) -> Vec<(u64, V)> {
        self.scan_entries(lo, hi).take(limit).collect()
    }

    /// Served shard by shard from the top: the last non-empty shard holds
    /// the global maximum.
    fn last_entry(&self) -> Option<(u64, V)> {
        self.shards.iter().rev().find_map(|s| s.last_entry())
    }

    /// Parallel cross-shard teardown: every shard in the span runs its own
    /// `remove_range` (for `lfbst`, the predicate-free streaming sweep).
    fn remove_range(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
        self.sweep_span(lo, hi, |s| s.remove_range(lo, hi))
    }

    /// Parallel cross-shard eviction sweep: every shard in the span judges
    /// with the same (`Sync`) predicate.
    fn retain_range(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        keep: &(dyn Fn(&u64, &V) -> bool + Sync),
    ) -> usize {
        self.sweep_span(lo, hi, |s| s.retain_range(lo, hi, keep))
    }
}

impl<S, R: fmt::Debug> fmt::Debug for Sharded<S, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sharded")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .field("router", &self.router)
            .finish_non_exhaustive()
    }
}
