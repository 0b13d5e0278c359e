//! [`ElasticMap`]: a range-sharded map whose routing table can be **replaced
//! online** — the epoch-switched core of elastic sharding.
//!
//! A static [`Sharded`](crate::Sharded) fixes its strips at
//! construction; under a skewed key distribution one strip saturates while
//! the rest idle, losing both of sharding's wins (contention isolation and
//! `log(n/N)` search paths).  `ElasticMap` keeps the same
//! "one tree per contiguous key strip" shape but publishes the strip layout
//! through an atomic pointer to an immutable routing `Table`, so a
//! background rebalancer can split a hot strip (or merge cold neighbours)
//! and swing the pointer — an *epoch switch*:
//!
//! * **Readers never block.**  A read pins its reclamation guard, loads the
//!   table, routes, and reads the strip's tree.  If a rebalance retires that
//!   table mid-read, the guard keeps the table (and, through `Arc`s, the
//!   tree) alive; the read linearizes at its table load.
//! * **Writers are briefly gated.**  A migration must hand the *final* state
//!   of the old tree to the replacement trees, so the cutover freezes writes
//!   to the affected strip(s) only: a writer registers itself in the strip's
//!   in-flight counter and re-validates the table pointer (both seqcst, see
//!   `ElasticMap::with_write`); the migrator publishes a `blocked` table,
//!   waits for registered writers to drain, reconciles the replacement trees
//!   against the now-frozen old tree, and publishes the final table.  Writers
//!   that meet a blocked strip spin briefly and land on the new trees.
//!   Writes to *other* strips are completely unaffected — their `Strip`
//!   objects are shared (`Arc`) between the old and new tables.
//! * **Old state is retired, not leaked.**  Superseded tables go through the
//!   pluggable [`Reclaimer`] (`defer_destroy`, backend-generic: EBR or IBR);
//!   drained trees are dropped when the last retired table and the last
//!   in-flight scan release their `Arc`s.
//!
//! See `DESIGN.md` §9 for the full protocol and its safety argument.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_epoch::{Atomic, Ebr, Owned, ReclaimGuard, Reclaimer, Shared};
use cset::{ConcurrentMap, LoadTally, OrderedMap, StatsSnapshot};

use crate::sharded::config_name;

/// The survival predicate `retain_range` threads into the strip teardown
/// (`None` = clear everything, i.e. `remove_range`).
type StripKeepFn<'a, V> = &'a (dyn Fn(&u64, &V) -> bool + Sync);

/// One key strip: a tree plus its load tally and in-flight writer count.
///
/// Strips are shared by `Arc` between successive routing tables, so a
/// rebalance of strip `i` leaves every other strip's tree, tally, and gate
/// *identical* in the new table — load history survives the switch and
/// writers on unaffected strips never notice it.
struct Strip<S> {
    tree: Arc<S>,
    /// Always-on relaxed op tally (reads and writes), the rebalancer's signal.
    hits: Arc<LoadTally>,
    /// Writers currently inside `tree`'s mutating call — the cutover gate.
    writers: Arc<AtomicU64>,
}

impl<S> Strip<S> {
    fn new(tree: Arc<S>) -> Self {
        Strip { tree, hits: Arc::new(LoadTally::new()), writers: Arc::new(AtomicU64::new(0)) }
    }
}

impl<S> Clone for Strip<S> {
    fn clone(&self) -> Self {
        Strip {
            tree: Arc::clone(&self.tree),
            hits: Arc::clone(&self.hits),
            writers: Arc::clone(&self.writers),
        }
    }
}

/// An immutable routing table: the unit the epoch switch publishes.
///
/// Strip `i` covers the half-open interval `[bounds[i - 1], bounds[i])`
/// (reading `bounds[-1]` as `0` and the missing last bound as past `u64::MAX`)
/// — exactly a [`BoundaryRouter`](crate::BoundaryRouter) with one tree
/// attached per strip.
struct Table<S> {
    /// `strips.len() - 1` strictly ascending split points.
    bounds: Vec<u64>,
    strips: Vec<Strip<S>>,
    /// Inclusive strip interval currently under cutover: writes routed there
    /// must retry on the successor table.
    blocked: Option<(usize, usize)>,
}

impl<S> Table<S> {
    #[inline]
    fn route(&self, key: u64) -> usize {
        self.bounds.partition_point(|b| *b <= key)
    }

    #[inline]
    fn is_blocked(&self, strip: usize) -> bool {
        matches!(self.blocked, Some((lo, hi)) if strip >= lo && strip <= hi)
    }

    /// Inclusive lower key of `strip`.
    fn strip_lower(&self, strip: usize) -> u64 {
        if strip == 0 {
            0
        } else {
            self.bounds[strip - 1]
        }
    }

    /// Exclusive upper key of `strip`, or `None` for the last strip.
    fn strip_upper(&self, strip: usize) -> Option<u64> {
        self.bounds.get(strip).copied()
    }
}

/// A range-sharded concurrent map with an **online-rebalanceable** strip
/// layout, generic over the reclamation backend `R` (EBR by default, IBR via
/// the type parameter) like the trees it shards.
///
/// `ElasticMap` implements [`ConcurrentMap`] and [`OrderedMap`] for `u64`
/// keys; per-key linearizability of the inner trees lifts to the whole map
/// *across* rebalances (the migration protocol in the module docs).  Split
/// and merge are usually driven by a [`Rebalancer`](crate::Rebalancer), but
/// [`split`](Self::split) / [`merge`](Self::merge) are public for direct use.
///
/// # Examples
///
/// ```
/// use cset::ConcurrentMap;
/// use lfbst::LfBst;
/// use shard::ElasticMap;
///
/// // Four equal strips over the keys 0..1000, lock-free trees underneath.
/// let map: ElasticMap<_> = ElasticMap::covering(4, 1000, || LfBst::<u64, u64>::new());
/// assert!(map.insert(7, 70));
/// assert_eq!(map.get(&7), Some(70));
///
/// // Split the first strip at key 100 — contents are preserved.
/// assert!(map.split(0, 100));
/// assert_eq!(map.shard_count(), 5);
/// assert_eq!(map.get(&7), Some(70));
/// ```
pub struct ElasticMap<S, R: Reclaimer = Ebr> {
    table: Atomic<Table<S>>,
    /// Constructor for fresh strip trees (migration targets).
    make: Box<dyn Fn() -> S + Send + Sync>,
    name: &'static str,
    /// Completed split/merge epoch switches.
    rebalances: AtomicU64,
    /// Serializes rebalances; point operations never take it.
    migrate: Mutex<()>,
    _backend: PhantomData<R>,
}

impl<S, R: Reclaimer> ElasticMap<S, R> {
    /// Creates a map with explicit initial split points (see
    /// [`BoundaryRouter::new`](crate::BoundaryRouter::new) for the bounds
    /// contract) and a constructor for strip trees.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending or starts at `0`.
    pub fn with_boundaries<V>(
        bounds: Vec<u64>,
        make: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self
    where
        S: ConcurrentMap<u64, V>,
    {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.first() != Some(&0),
            "split points must be strictly ascending and non-zero"
        );
        let strips: Vec<Strip<S>> =
            (0..=bounds.len()).map(|_| Strip::new(Arc::new(make()))).collect();
        let name = config_name(strips[0].tree.name(), strips.len(), "elastic");
        ElasticMap {
            table: Atomic::new(Table { bounds, strips, blocked: None }),
            make: Box::new(make),
            name,
            rebalances: AtomicU64::new(0),
            migrate: Mutex::new(()),
            _backend: PhantomData,
        }
    }

    /// Creates a map with `shards` equal-width strips over `[0, span)`
    /// (high keys land in the last strip), the elastic twin of
    /// [`RangeRouter::covering`](crate::RangeRouter::covering).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `span == 0`.
    pub fn covering<V>(
        shards: usize,
        span: u64,
        make: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self
    where
        S: ConcurrentMap<u64, V>,
    {
        let bounds = crate::BoundaryRouter::covering(shards, span).bounds().to_vec();
        Self::with_boundaries(bounds, make)
    }

    /// The current number of strips.
    pub fn shard_count(&self) -> usize {
        let guard = R::pin();
        unsafe { self.table.load(Ordering::Acquire, &guard).deref() }.strips.len()
    }

    /// The current split points, strictly ascending (`shard_count() - 1`).
    pub fn boundaries(&self) -> Vec<u64> {
        let guard = R::pin();
        unsafe { self.table.load(Ordering::Acquire, &guard).deref() }.bounds.clone()
    }

    /// Per-strip op tallies since construction or the last
    /// [`take_loads`](Self::take_loads), in strip order.
    pub fn load_per_shard(&self) -> Vec<u64> {
        let guard = R::pin();
        let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
        t.strips.iter().map(|s| s.hits.get()).collect()
    }

    /// Reads **and resets** the per-strip tallies — the rebalancer's windowed
    /// load sample.
    pub fn take_loads(&self) -> Vec<u64> {
        let guard = R::pin();
        let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
        t.strips.iter().map(|s| s.hits.take()).collect()
    }

    /// Completed rebalances (splits + merges) since construction.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Routes a point operation that only **reads** its strip.
    ///
    /// Reads ignore the `blocked` latch on purpose: during a cutover the old
    /// tree is frozen for writes (the gate drained) and the replacement trees
    /// are reconciled to equal it exactly, so reading the old tree stays
    /// linearizable — the read's linearization point is its table load.
    #[inline]
    fn with_read<T>(&self, key: u64, op: impl FnOnce(&S) -> T) -> T {
        let guard = R::pin();
        let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
        let strip = &t.strips[t.route(key)];
        strip.hits.bump();
        op(&strip.tree)
    }

    /// Routes a point operation that **mutates** its strip, through the
    /// cutover gate.
    ///
    /// The gate is a seqlock-style handshake with [`await_writers`]: the
    /// writer registers in the strip's in-flight counter and then re-loads
    /// the table pointer; the migrator swaps the pointer and then reads the
    /// counter.  All four accesses are seqcst, so in the total order either
    /// the registration precedes the migrator's read (the migrator waits for
    /// this writer to finish on the old tree) or the swap precedes the
    /// re-load (the writer observes the blocked table, deregisters, and
    /// retries on the successor) — a write can never land on a tree the
    /// migrator has already reconciled.  Acquire/release alone would allow
    /// the classic store-buffer anomaly (both sides reading the old value)
    /// and lose the write.
    ///
    /// `op` runs exactly once, on the tree the write is guaranteed to own.
    #[inline]
    fn with_write<T>(&self, key: u64, mut op: impl FnMut(&S) -> T) -> T {
        let mut attempts = 0u32;
        loop {
            {
                let guard = R::pin();
                let shared = self.table.load(Ordering::Acquire, &guard);
                let t = unsafe { shared.deref() };
                let idx = t.route(key);
                if !t.is_blocked(idx) {
                    let strip = &t.strips[idx];
                    strip.writers.fetch_add(1, Ordering::SeqCst);
                    let reread = self.table.load(Ordering::SeqCst, &guard);
                    // The guard pins `shared`'s table, so its address cannot
                    // be recycled while we compare: pointer equality really
                    // means "still the published table".
                    if reread.as_raw() == shared.as_raw() {
                        strip.hits.bump();
                        let out = op(&strip.tree);
                        strip.writers.fetch_sub(1, Ordering::Release);
                        return out;
                    }
                    strip.writers.fetch_sub(1, Ordering::Release);
                }
            }
            // Blocked (or switched under us): back off outside the pin so the
            // migrator's guard is not the only one holding the epoch back.
            attempts += 1;
            if attempts < 32 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Spins until every writer registered on `strip` has deregistered.
    ///
    /// Called after the blocked table is published: combined with the seqcst
    /// handshake in [`with_write`](Self::with_write), returning means no
    /// writer is inside — or can ever re-enter — the strip's tree, and every
    /// completed write is visible (the deregistering `fetch_sub(Release)`
    /// pairs with this seqcst load).
    fn await_writers(strip: &Strip<S>) {
        let mut attempts = 0u32;
        while strip.writers.load(Ordering::SeqCst) != 0 {
            attempts += 1;
            if attempts < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Splits strip `strip_idx` at `pivot`, publishing a table with one more
    /// strip.  Returns `false` (and does nothing) if the index is stale or
    /// the pivot does not fall strictly inside the strip — the validation
    /// that makes racing policy decisions harmless.
    ///
    /// The three phases (bulk copy concurrent with writers; gated cutover +
    /// reconcile; publish) are described in the module docs.
    pub fn split<V>(&self, strip_idx: usize, pivot: u64) -> bool
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        let _serialize = self.migrate.lock().expect("rebalance lock poisoned");
        let (old, bounds0, strips0) = {
            let guard = R::pin();
            let t0 = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
            if strip_idx >= t0.strips.len()
                || pivot <= t0.strip_lower(strip_idx)
                || t0.strip_upper(strip_idx).is_some_and(|u| pivot >= u)
            {
                return false;
            }
            (t0.strips[strip_idx].clone(), t0.bounds.clone(), t0.strips.clone())
        };

        // Phase 1 — bulk copy through the streaming cursor while writers
        // continue on the old tree.  The replacements are private until
        // publication, so plain inserts cannot conflict; the median-first
        // load keeps them height-balanced despite the sorted source.
        let left = Arc::new((self.make)());
        let right = Arc::new((self.make)());
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for (k, v) in cset::chunked_scan_entries(&*old.tree, Bound::Unbounded, Bound::Unbounded) {
            if k < pivot { &mut lo } else { &mut hi }.push((k, v));
        }
        balanced_load(&*left, lo);
        balanced_load(&*right, hi);

        // Phase 2 — cutover: block the strip, drain its writers, reconcile
        // the (now bounded) drift the concurrent phase accumulated.
        let guard = R::pin();
        let blocked = Table {
            bounds: bounds0.clone(),
            strips: strips0.clone(),
            blocked: Some((strip_idx, strip_idx)),
        };
        let prev = self.table.swap(Owned::new(blocked), Ordering::SeqCst, &guard);
        unsafe { guard.defer_destroy(prev) };
        Self::await_writers(&old);
        reconcile(
            cset::chunked_scan_entries(&*old.tree, Bound::Unbounded, Bound::Unbounded),
            chain_entries(&[&*left, &*right]),
            &[(Some(pivot), &*left), (None, &*right)],
        );

        // Phase 3 — publish the split layout; the old tree leaves the table
        // and is dropped once the retired tables and in-flight scans release
        // their Arcs.
        let mut bounds = bounds0;
        bounds.insert(strip_idx, pivot);
        let mut strips = strips0;
        strips[strip_idx] = Strip::new(left);
        strips.insert(strip_idx + 1, Strip::new(right));
        let t2 = Table { bounds, strips, blocked: None };
        let prev = self.table.swap(Owned::new(t2), Ordering::SeqCst, &guard);
        unsafe { guard.defer_destroy(prev) };
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Merges strips `left_idx` and `left_idx + 1` into one, publishing a
    /// table with one fewer strip.  Returns `false` if the index is stale.
    ///
    /// Same protocol as [`split`](Self::split) with two source strips: both
    /// are blocked and drained before the reconcile.
    pub fn merge<V>(&self, left_idx: usize) -> bool
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        let _serialize = self.migrate.lock().expect("rebalance lock poisoned");
        let (a, b, bounds0, strips0) = {
            let guard = R::pin();
            let t0 = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
            if left_idx + 1 >= t0.strips.len() {
                return false;
            }
            (
                t0.strips[left_idx].clone(),
                t0.strips[left_idx + 1].clone(),
                t0.bounds.clone(),
                t0.strips.clone(),
            )
        };

        // Phase 1 — bulk copy both strips (adjacent, so chaining the two
        // ascending cursors yields one sorted run for the balanced load).
        let merged = Arc::new((self.make)());
        let mut run = Vec::new();
        for src in [&a, &b] {
            run.extend(cset::chunked_scan_entries(&*src.tree, Bound::Unbounded, Bound::Unbounded));
        }
        balanced_load(&*merged, run);

        // Phase 2 — cutover over both strips.
        let guard = R::pin();
        let blocked = Table {
            bounds: bounds0.clone(),
            strips: strips0.clone(),
            blocked: Some((left_idx, left_idx + 1)),
        };
        let prev = self.table.swap(Owned::new(blocked), Ordering::SeqCst, &guard);
        unsafe { guard.defer_destroy(prev) };
        Self::await_writers(&a);
        Self::await_writers(&b);
        reconcile(
            chain_entries(&[&*a.tree, &*b.tree]),
            cset::chunked_scan_entries(&*merged, Bound::Unbounded, Bound::Unbounded),
            &[(None, &*merged)],
        );

        // Phase 3 — publish the merged layout.
        let mut bounds = bounds0;
        bounds.remove(left_idx);
        let mut strips = strips0;
        strips[left_idx] = Strip::new(merged);
        strips.remove(left_idx + 1);
        let t2 = Table { bounds, strips, blocked: None };
        let prev = self.table.swap(Owned::new(t2), Ordering::SeqCst, &guard);
        unsafe { guard.defer_destroy(prev) };
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// A split point for `strip_idx`: the midpoint of the strip's *populated*
    /// key span, which repeated splits shrink geometrically around a hot
    /// region.  `None` if the strip holds fewer than two distinct keys (there
    /// is nothing to split).
    pub fn split_pivot<V>(&self, strip_idx: usize) -> Option<u64>
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        let tree = {
            let guard = R::pin();
            let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
            Arc::clone(&t.strips.get(strip_idx)?.tree)
        };
        let first = tree.first_entry()?.0;
        let last = tree.last_entry()?.0;
        if first >= last {
            return None;
        }
        // In (first, last]: both sides keep at least one present key, and the
        // pivot stays strictly inside the strip's bounds.
        Some(first + (last - first).div_ceil(2))
    }

    /// Per-strip quiescent sizes, in strip order.
    pub fn len_per_shard<V>(&self) -> Vec<usize>
    where
        S: ConcurrentMap<u64, V>,
    {
        let trees = self.snapshot_trees(Bound::Unbounded, Bound::Unbounded);
        trees.iter().map(|t| t.len()).collect()
    }

    /// Clones out the strip trees covering `[lo, hi]` under a short pin.
    ///
    /// Scans run over this owned snapshot, so they never extend a pin across
    /// user iteration and keep the PR 5 weak-consistency contract across a
    /// rebalance: keys present for the whole scan in the *captured* trees
    /// appear; entries migrated into strips created after the capture are
    /// concurrent updates and may be missed.
    fn snapshot_trees(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<Arc<S>> {
        let guard = R::pin();
        let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
        let first = match lo {
            Bound::Unbounded => 0,
            Bound::Included(k) | Bound::Excluded(k) => t.route(*k),
        };
        let last = match hi {
            Bound::Unbounded => t.strips.len() - 1,
            Bound::Included(k) | Bound::Excluded(k) => t.route(*k),
        };
        t.strips[first..=last].iter().map(|s| Arc::clone(&s.tree)).collect()
    }

    /// The whole-strip teardown behind the map facade's bulk mutations.
    ///
    /// Strips **fully covered** by `[lo, hi]` are not drained key by key:
    /// they are replaced wholesale through the same blocked-table cutover a
    /// rebalance uses — publish a table with the covered run blocked, drain
    /// its writers, then publish a final table whose covered strips hold
    /// fresh (empty, or pre-filtered and reconciled) trees.  The strip
    /// layout (`bounds`) never changes, only the trees; the old trees leave
    /// the table and are dropped when the retired tables and in-flight scans
    /// release their `Arc`s — one bulk drop instead of a removal-protocol
    /// run per key.  Boundary strips the range only clips fall back to their
    /// trees' own streaming sweeps (linearizable per key, no epoch switch).
    fn teardown_range<V>(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        keep: Option<StripKeepFn<'_, V>>,
    ) -> usize
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        if cset::range_is_empty(&lo, &hi) {
            return 0;
        }
        let _serialize = self.migrate.lock().expect("rebalance lock poisoned");
        let (bounds0, strips0, first, last) = {
            let guard = R::pin();
            let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
            let first = match lo {
                Bound::Unbounded => 0,
                Bound::Included(k) | Bound::Excluded(k) => t.route(*k),
            };
            let last = match hi {
                Bound::Unbounded => t.strips.len() - 1,
                Bound::Included(k) | Bound::Excluded(k) => t.route(*k),
            };
            (t.bounds.clone(), t.strips.clone(), first, last)
        };
        let strip_lower = |i: usize| if i == 0 { 0 } else { bounds0[i - 1] };
        let strip_upper = |i: usize| bounds0.get(i).copied();
        // Strip `i` covers `[lower, upper)`; it is fully covered when every
        // key in that interval falls inside `[lo, hi]`.  Split points are
        // non-zero, so `u - 1` cannot underflow.
        let covered = |i: usize| {
            let lo_ok = match lo {
                Bound::Unbounded => true,
                Bound::Included(k) => *k <= strip_lower(i),
                Bound::Excluded(k) => *k < strip_lower(i),
            };
            let hi_ok = match (hi, strip_upper(i)) {
                (Bound::Unbounded, _) => true,
                (Bound::Included(k), None) => *k == u64::MAX,
                (Bound::Excluded(_), None) => false,
                (Bound::Included(k), Some(u)) => *k >= u - 1,
                (Bound::Excluded(k), Some(u)) => *k >= u,
            };
            lo_ok && hi_ok
        };
        let full: Vec<usize> = (first..=last).filter(|&i| covered(i)).collect();
        let mut removed = 0usize;

        if let (Some(&f0), Some(&f1)) = (full.first(), full.last()) {
            // One contiguous range over contiguous strips: the covered strips
            // form one middle run, with at most one clipped strip per edge.
            debug_assert_eq!(full.len(), f1 - f0 + 1, "covered strips form one contiguous run");

            // Phase 1 (filtered swap only) — pre-copy each covered strip's
            // survivors into a fresh balanced tree while writers continue on
            // the old trees; a plain range delete swaps in empty trees and
            // skips this entirely.
            let replacements: Vec<Arc<S>> = (f0..=f1)
                .map(|i| {
                    let fresh = Arc::new((self.make)());
                    if let Some(keep) = keep {
                        let survivors: Vec<(u64, V)> = cset::chunked_scan_entries(
                            &*strips0[i].tree,
                            Bound::Unbounded,
                            Bound::Unbounded,
                        )
                        .filter(|(k, v)| keep(k, v))
                        .collect();
                        balanced_load(&*fresh, survivors);
                    }
                    fresh
                })
                .collect();

            // Phase 2 — cutover: block the covered run, drain its writers,
            // then settle each replacement against its now-frozen source.
            let guard = R::pin();
            let blocked =
                Table { bounds: bounds0.clone(), strips: strips0.clone(), blocked: Some((f0, f1)) };
            let prev = self.table.swap(Owned::new(blocked), Ordering::SeqCst, &guard);
            unsafe { guard.defer_destroy(prev) };
            for strip in &strips0[f0..=f1] {
                Self::await_writers(strip);
            }
            for (i, fresh) in (f0..=f1).zip(&replacements) {
                let old = &strips0[i].tree;
                match keep {
                    // The strip is frozen, so its quiescent count is exactly
                    // what the swap evicts.
                    None => removed += old.len(),
                    Some(keep) => {
                        let dropped = std::cell::Cell::new(0usize);
                        let oracle =
                            cset::chunked_scan_entries(&**old, Bound::Unbounded, Bound::Unbounded)
                                .filter(|(k, v)| {
                                    let kept = keep(k, v);
                                    if !kept {
                                        dropped.set(dropped.get() + 1);
                                    }
                                    kept
                                });
                        reconcile(
                            oracle,
                            cset::chunked_scan_entries(
                                &**fresh,
                                Bound::Unbounded,
                                Bound::Unbounded,
                            ),
                            &[(None, &**fresh)],
                        );
                        removed += dropped.get();
                    }
                }
            }

            // Phase 3 — publish the swapped strips; the split points are
            // untouched, so routing is unchanged and only the covered trees
            // move.
            let mut strips = strips0.clone();
            for (i, fresh) in (f0..=f1).zip(replacements) {
                strips[i] = Strip::new(fresh);
            }
            let t2 = Table { bounds: bounds0.clone(), strips, blocked: None };
            let prev = self.table.swap(Owned::new(t2), Ordering::SeqCst, &guard);
            unsafe { guard.defer_destroy(prev) };
        }

        // Boundary strips the range only clips: stream-sweep them through
        // the trees themselves (the same trees live writers use, so per-key
        // linearizability is the trees' own).
        for i in (first..=last).filter(|&i| !covered(i)) {
            let tree = &strips0[i].tree;
            removed += match keep {
                None => tree.remove_range(lo, hi),
                Some(keep) => tree.retain_range(lo, hi, keep),
            };
        }
        removed
    }
}

impl<S, R: Reclaimer> Drop for ElasticMap<S, R> {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): the unprotected guard destroys the
        // table immediately; the strips' Arcs drop the trees.
        unsafe {
            let guard = R::unprotected();
            let t = self.table.swap(Shared::null(), Ordering::SeqCst, guard);
            if !t.is_null() {
                guard.defer_destroy(t);
            }
        }
    }
}

impl<S, R: Reclaimer> fmt::Debug for ElasticMap<S, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElasticMap")
            .field("name", &self.name)
            .field("backend", &R::NAME)
            .field("rebalances", &self.rebalances.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Bulk-loads a sorted entry run into a fresh tree median-first, recursing
/// into each half, so the replacement comes out height-balanced.  The
/// paper's BST does no rebalancing: feeding the cursor's ascending stream
/// straight into `insert` would degenerate the new tree into a linked list,
/// making every post-migration search O(strip size) — strictly worse than
/// the tree being replaced, and the opposite of what a split is for.
fn balanced_load<S, V>(tree: &S, entries: Vec<(u64, V)>)
where
    S: ConcurrentMap<u64, V>,
{
    let mut entries: Vec<Option<(u64, V)>> = entries.into_iter().map(Some).collect();
    let mut stack = vec![(0usize, entries.len())];
    while let Some((lo, hi)) = stack.pop() {
        if lo >= hi {
            continue;
        }
        let mid = lo + (hi - lo) / 2;
        let (k, v) = entries[mid].take().expect("each slot is visited exactly once");
        tree.insert(k, v);
        stack.push((lo, mid));
        stack.push((mid + 1, hi));
    }
}

/// Chains bounded-page cursors over several key-disjoint, ascending trees —
/// the "old side" stream reconciliation walks for a merge.
fn chain_entries<'a, S, V>(trees: &[&'a S]) -> impl Iterator<Item = (u64, V)> + 'a
where
    S: OrderedMap<u64, V>,
    V: 'a,
{
    let cursors: Vec<_> = trees
        .iter()
        .map(|t| cset::chunked_scan_entries(*t, Bound::Unbounded, Bound::Unbounded))
        .collect();
    cursors.into_iter().flatten()
}

/// Makes the target trees' contents exactly equal `oracle` (the frozen old
/// strip state) given `current` (their present contents): both streams are
/// ascending, so one sorted merge-walk inserts the missing keys, removes the
/// extra ones, and re-upserts values that drifted during the concurrent copy
/// phase.  `targets` is a boundary-routed list: a key goes to the first entry
/// whose exclusive upper bound (if any) exceeds it.
fn reconcile<S, V>(
    oracle: impl Iterator<Item = (u64, V)>,
    current: impl Iterator<Item = (u64, V)>,
    targets: &[(Option<u64>, &S)],
) where
    S: ConcurrentMap<u64, V>,
    V: PartialEq,
{
    let pick = |k: u64| {
        targets
            .iter()
            .find(|(upper, _)| upper.map_or(true, |u| k < u))
            .expect("reconcile targets must cover the key space")
            .1
    };
    let mut oracle = oracle.peekable();
    let mut current = current.peekable();
    loop {
        let ordering = match (oracle.peek(), current.peek()) {
            (None, None) => break,
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        match ordering {
            std::cmp::Ordering::Less => {
                // Missed by the copy (inserted into the old tree after the
                // cursor passed): add it.
                let (k, v) = oracle.next().expect("peeked");
                pick(k).insert(k, v);
            }
            std::cmp::Ordering::Greater => {
                // Copied but later removed from the old tree: take it out.
                let (k, _) = current.next().expect("peeked");
                pick(k).remove(&k);
            }
            std::cmp::Ordering::Equal => {
                // Present in both; re-upsert only if the value drifted.
                let (k, v) = oracle.next().expect("peeked");
                let (_, cur) = current.next().expect("peeked");
                if cur != v {
                    pick(k).upsert(k, v);
                }
            }
        }
    }
}

impl<V, S, R> ConcurrentMap<u64, V> for ElasticMap<S, R>
where
    S: OrderedMap<u64, V>,
    V: PartialEq + Send + Sync,
    R: Reclaimer,
{
    #[inline]
    fn insert(&self, key: u64, value: V) -> bool {
        let mut value = Some(value);
        self.with_write(key, |tree| tree.insert(key, value.take().expect("op runs once")))
    }

    #[inline]
    fn get(&self, key: &u64) -> Option<V> {
        self.with_read(*key, |tree| tree.get(key))
    }

    #[inline]
    fn upsert(&self, key: u64, value: V) -> Option<V> {
        let mut value = Some(value);
        self.with_write(key, |tree| tree.upsert(key, value.take().expect("op runs once")))
    }

    #[inline]
    fn remove(&self, key: &u64) -> Option<V> {
        self.with_write(*key, |tree| tree.remove(key))
    }

    #[inline]
    fn contains_key(&self, key: &u64) -> bool {
        self.with_read(*key, |tree| tree.contains_key(key))
    }

    /// Sum of the per-strip quiescent counts (the [`StatsSnapshot::merge`]
    /// contract).
    fn len(&self) -> usize {
        self.snapshot_trees(Bound::Unbounded, Bound::Unbounded).iter().map(|t| t.len()).sum()
    }

    /// The label of the **initial** configuration (`innerxN-elastic`); the
    /// live strip count moves with rebalancing, the label does not.
    fn name(&self) -> &'static str {
        self.name
    }

    fn stats(&self) -> StatsSnapshot {
        self.snapshot_trees(Bound::Unbounded, Bound::Unbounded).iter().map(|t| t.stats()).sum()
    }
}

impl<V, S, R> OrderedMap<u64, V> for ElasticMap<S, R>
where
    S: OrderedMap<u64, V>,
    V: PartialEq + Send + Sync,
    R: Reclaimer,
{
    /// A streaming scan over the strips captured at call time: strips are
    /// key-disjoint and ascending, so concatenating their bounded-page
    /// cursors yields one globally ascending scan with no k-way merge.  The
    /// capture is what lets a scan span a rebalance — see
    /// `ElasticMap::snapshot_trees` for the consistency
    /// contract.
    fn scan_entries<'a>(&'a self, lo: Bound<&u64>, hi: Bound<&u64>) -> cset::EntryCursor<'a, u64, V>
    where
        V: 'a,
    {
        if cset::range_is_empty(&lo, &hi) {
            return Box::new(std::iter::empty());
        }
        let trees = self.snapshot_trees(lo, hi);
        Box::new(ElasticScan {
            trees,
            tree_idx: 0,
            lo: lo.cloned(),
            hi: hi.cloned(),
            last_key: None,
            page: Vec::new().into_iter(),
            chunk: cset::SCAN_CHUNK,
        })
    }

    /// Concatenates per-strip bulk scans over the captured trees (disjoint
    /// and ascending, as above).
    fn entries_between(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, V)> {
        if cset::range_is_empty(&lo, &hi) {
            return Vec::new();
        }
        let trees = self.snapshot_trees(lo, hi);
        let mut out = Vec::new();
        for tree in &trees {
            out.extend(tree.entries_between(lo, hi));
        }
        out
    }

    fn entries_between_limited(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        limit: usize,
    ) -> Vec<(u64, V)> {
        self.scan_entries(lo, hi).take(limit).collect()
    }

    fn first_entry(&self) -> Option<(u64, V)> {
        let trees = self.snapshot_trees(Bound::Unbounded, Bound::Unbounded);
        trees.iter().find_map(|t| t.first_entry())
    }

    fn last_entry(&self) -> Option<(u64, V)> {
        let trees = self.snapshot_trees(Bound::Unbounded, Bound::Unbounded);
        trees.iter().rev().find_map(|t| t.last_entry())
    }

    fn next_entry_after(&self, key: &u64) -> Option<(u64, V)> {
        let trees = self.snapshot_trees(Bound::Included(key), Bound::Unbounded);
        trees.iter().find_map(|t| t.next_entry_after(key))
    }

    /// Whole-strip fast path: strips fully covered by the range are swapped
    /// for fresh empty trees through the epoch-switched cutover (one bulk
    /// drop instead of per-key removal-protocol runs); clipped boundary
    /// strips fall back to their trees' streaming sweeps.  See
    /// `ElasticMap::teardown_range`.
    fn remove_range(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
        self.teardown_range(lo, hi, None)
    }

    /// Same fast path with a filter: covered strips get a pre-filtered,
    /// reconciled replacement tree; boundary strips stream-sweep.
    fn retain_range(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        keep: &(dyn Fn(&u64, &V) -> bool + Sync),
    ) -> usize {
        self.teardown_range(lo, hi, Some(keep))
    }
}

/// The owning cursor behind [`ElasticMap`]'s `scan_entries`: pages through
/// the captured strip trees with the same bounded-pin discipline as
/// [`cset::chunked_scan_entries`], but holds its trees by `Arc` so the scan
/// survives the routing table that produced it being retired.
struct ElasticScan<S, V> {
    trees: Vec<Arc<S>>,
    tree_idx: usize,
    lo: Bound<u64>,
    hi: Bound<u64>,
    /// Highest key already yielded; the next page starts strictly above it.
    last_key: Option<u64>,
    page: std::vec::IntoIter<(u64, V)>,
    /// Doubles after every full page, up to [`cset::SCAN_CHUNK_MAX`].
    chunk: usize,
}

impl<S, V> Iterator for ElasticScan<S, V>
where
    S: OrderedMap<u64, V>,
{
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        loop {
            if let Some((k, v)) = self.page.next() {
                self.last_key = Some(k);
                return Some((k, v));
            }
            let tree = self.trees.get(self.tree_idx)?;
            let lo = match self.last_key {
                Some(k) => Bound::Excluded(k),
                None => self.lo,
            };
            let fetched = tree.entries_between_limited(lo.as_ref(), self.hi.as_ref(), self.chunk);
            if fetched.len() < self.chunk {
                // This strip is drained (past `last_key`); move on.  Strips
                // are disjoint and ascending, so `last_key` keeps advancing
                // monotonically across them.
                self.tree_idx += 1;
            } else {
                self.chunk = (self.chunk * 2).min(cset::SCAN_CHUNK_MAX);
            }
            self.page = fetched.into_iter();
            if self.page.len() == 0 && self.tree_idx >= self.trees.len() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering as AtOrd};
    use std::thread;
    use std::time::{Duration, Instant};

    use cset::ConcurrentMap;
    use lfbst::{Ibr, LfBst};
    use locked_bst::CoarseLockMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn new_map(shards: usize, span: u64) -> ElasticMap<LfBst<u64, u64>> {
        ElasticMap::covering(shards, span, LfBst::new)
    }

    /// Spins until at least one rebalance has completed (failing after 30 s
    /// rather than hanging) — the `switches > 0` assertions stay meaningful
    /// without being timing-flaky on a loaded machine where a migration can
    /// outlast the test's fixed workload.
    fn await_first_rebalance(rebalances: impl Fn() -> u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while rebalances() == 0 {
            assert!(Instant::now() < deadline, "no rebalance completed in 30s");
            thread::yield_now();
        }
    }

    /// Spawns a thread that alternates splits and merges as fast as the map
    /// allows, maximizing router switches under the test workload.
    fn spawn_flipper<S, R>(
        map: Arc<ElasticMap<S, R>>,
        stop: Arc<AtomicBool>,
    ) -> thread::JoinHandle<u64>
    where
        S: OrderedMap<u64, u64> + 'static,
        R: Reclaimer,
    {
        thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x51DE);
            let mut switches = 0u64;
            while !stop.load(AtOrd::Acquire) {
                let n = map.shard_count();
                if n > 1 && rng.gen_bool(0.5) {
                    if map.merge(rng.gen_range(0..n - 1)) {
                        switches += 1;
                    }
                } else {
                    let idx = rng.gen_range(0..n);
                    if let Some(pivot) = map.split_pivot(idx) {
                        if map.split(idx, pivot) {
                            switches += 1;
                        }
                    }
                }
            }
            switches
        })
    }

    #[test]
    fn split_and_merge_preserve_contents() {
        let map = new_map(2, 1 << 12);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(0xE1A5);
        for round in 0..8u64 {
            for _ in 0..500 {
                let k = rng.gen_range(0..1u64 << 12);
                if rng.gen_bool(0.7) {
                    assert_eq!(map.upsert(k, k ^ round), model.insert(k, k ^ round));
                } else {
                    assert_eq!(map.remove(&k), model.remove(&k));
                }
            }
            // Alternate growing and shrinking the table.
            if round % 2 == 0 {
                let idx = rng.gen_range(0..map.shard_count());
                if let Some(pivot) = map.split_pivot(idx) {
                    assert!(map.split(idx, pivot));
                }
            } else if map.shard_count() > 1 {
                assert!(map.merge(0));
            }
            let bounds = map.boundaries();
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds stay ascending");
            assert_eq!(bounds.len() + 1, map.shard_count());
            let scanned = map.entries_between(Bound::Unbounded, Bound::Unbounded);
            let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(scanned, expected, "contents diverged after round {round}");
            assert_eq!(map.len(), model.len());
            let per_strip: usize = map.len_per_shard::<u64>().iter().sum();
            assert_eq!(per_strip, model.len());
        }
        assert!(map.rebalances() >= 8);
    }

    #[test]
    fn split_and_merge_reject_stale_or_degenerate_decisions() {
        let map = new_map(2, 1_000);
        // Out-of-range strip indices.
        assert!(!map.split(7, 100));
        assert!(!map.merge(1), "merge left index must have a right neighbor");
        assert!(!map.merge(9));
        // A pivot outside the strip's key range (strip 1 covers [500, inf)).
        assert!(!map.split(1, 100));
        // A pivot equal to the strip's lower bound would create an empty strip.
        assert!(!map.split(1, 500));
        // No pivot exists for a strip with fewer than two distinct keys.
        assert_eq!(map.split_pivot::<u64>(0), None);
        map.insert(3, 3);
        assert_eq!(map.split_pivot::<u64>(0), None);
        map.insert(9, 9);
        let pivot = map.split_pivot::<u64>(0).expect("two keys give a pivot");
        assert!(pivot > 3 && pivot <= 9);
        assert!(map.split(0, pivot));
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.get(&3), Some(3));
        assert_eq!(map.get(&9), Some(9));
    }

    #[test]
    fn ibr_backend_splits_and_merges() {
        let map: ElasticMap<LfBst<u64, u64, Ibr>, Ibr> =
            ElasticMap::covering(2, 1_000, LfBst::new_in);
        for k in 0..1_000u64 {
            assert!(map.insert(k, k * 2));
        }
        assert!(map.split(0, 250));
        assert!(map.merge(1));
        assert_eq!(map.len(), 1_000);
        for k in (0..1_000u64).step_by(97) {
            assert_eq!(map.get(&k), Some(k * 2));
        }
    }

    /// A scan cursor opened before a rebalance must page straight through the
    /// router switch: the captured strips are frozen by `Arc`, so the page
    /// sequence stays exactly the capture-time contents, sorted.
    #[test]
    fn scan_page_spans_a_router_switch() {
        let map = new_map(2, 1_000);
        for k in 0..1_000u64 {
            map.insert(k, k);
        }
        let mut cursor = map.scan_entries(Bound::Unbounded, Bound::Unbounded);
        let mut seen: Vec<u64> = (&mut cursor).take(10).map(|(k, _)| k).collect();
        // Split the strip the cursor is currently paging through, then merge
        // the far end: two full epoch switches mid-scan.
        assert!(map.split(0, 123));
        assert!(map.merge(map.shard_count() - 2));
        // Post-capture writes must not corrupt the in-flight page sequence.
        map.insert(2_000, 2_000);
        map.remove(&700);
        seen.extend(cursor.map(|(k, _)| k));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "scan stays strictly ascending");
        // The capture predates both the insert and the remove, and captured
        // trees are only written through the cutover gate the scan does not
        // hold — so the scan yields exactly the capture-time keys.
        assert_eq!(seen, (0..1_000u64).collect::<Vec<_>>());
        drop(map);
    }

    /// ISSUE 9 acceptance: per-key results stay linearizable across router
    /// switches.  Each thread owns a disjoint congruence class of keys and
    /// mirrors every operation on a coarse-locked oracle; since nobody else
    /// touches its keys, the return values must agree op-for-op even while a
    /// background thread splits and merges strips continuously.
    fn oracle_conformance_under_rebalance<R: Reclaimer>() {
        const THREADS: u64 = 4;
        const SPAN: u64 = 1 << 12;
        let map: Arc<ElasticMap<LfBst<u64, u64, R>, R>> =
            Arc::new(ElasticMap::covering(4, SPAN, LfBst::new_in));
        let oracle: Arc<CoarseLockMap<u64, u64>> = Arc::new(CoarseLockMap::new());
        let stop = Arc::new(AtomicBool::new(false));
        let flipper = spawn_flipper(Arc::clone(&map), Arc::clone(&stop));

        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = Arc::clone(&map);
                let oracle = Arc::clone(&oracle);
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xACE0 + t);
                    for i in 0..6_000u64 {
                        let k = rng.gen_range(0..SPAN / THREADS) * THREADS + t;
                        let v = i;
                        match rng.gen_range(0..10u8) {
                            0..=2 => assert_eq!(
                                map.insert(k, v),
                                oracle.insert(k, v),
                                "insert({k}) diverged on {}",
                                R::NAME
                            ),
                            3..=4 => assert_eq!(
                                map.upsert(k, v),
                                oracle.upsert(k, v),
                                "upsert({k}) diverged on {}",
                                R::NAME
                            ),
                            5..=6 => assert_eq!(
                                map.remove(&k),
                                oracle.remove(&k),
                                "remove({k}) diverged on {}",
                                R::NAME
                            ),
                            7..=8 => assert_eq!(
                                map.get(&k),
                                oracle.get(&k),
                                "get({k}) diverged on {}",
                                R::NAME
                            ),
                            _ => assert_eq!(
                                map.contains_key(&k),
                                oracle.contains_key(&k),
                                "contains_key({k}) diverged on {}",
                                R::NAME
                            ),
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        await_first_rebalance(|| map.rebalances());
        stop.store(true, AtOrd::Release);
        let switches = flipper.join().unwrap();
        assert!(switches > 0, "the rebalancer thread never managed a switch");

        // Quiescent final state: exact agreement, both by point reads and by
        // one full ascending scan.
        assert_eq!(map.len(), oracle.len());
        let scanned = map.entries_between(Bound::Unbounded, Bound::Unbounded);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scanned.len(), oracle.len());
        for (k, v) in scanned {
            assert_eq!(oracle.get(&k), Some(v), "stray key {k} on {}", R::NAME);
        }
    }

    #[test]
    fn oracle_conformance_under_rebalance_ebr() {
        oracle_conformance_under_rebalance::<crossbeam_epoch::Ebr>();
    }

    #[test]
    fn oracle_conformance_under_rebalance_ibr() {
        oracle_conformance_under_rebalance::<crossbeam_epoch::Ibr>();
    }

    /// Scan residue invariants (mirroring the PR 5 churn tests) while a
    /// rebalancer switches tables underneath: keys in the always-present
    /// class appear in every scan, never-inserted keys in none, and every
    /// scan is strictly ascending — weak consistency never shows phantoms.
    #[test]
    fn scan_residue_invariants_survive_live_rebalance() {
        const SPAN: u64 = 2_048;
        let map = Arc::new(new_map(4, SPAN));
        for k in (3..SPAN).step_by(4) {
            map.insert(k, k); // class 3 mod 4: present for the whole test
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flipper = spawn_flipper(Arc::clone(&map), Arc::clone(&stop));
        let churners: Vec<_> = [0u64, 2]
            .into_iter()
            .map(|class| {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(class);
                    while !stop.load(AtOrd::Acquire) {
                        let k = rng.gen_range(0..SPAN / 4) * 4 + class;
                        if rng.gen_bool(0.5) {
                            map.upsert(k, k);
                        } else {
                            map.remove(&k);
                        }
                    }
                })
            })
            .collect();

        // At least 40 scans, and keep scanning until a rebalance actually
        // completed underneath one (migrations race the churners and can
        // outlast 40 scans on a loaded machine) — with a deadline so a
        // wedged rebalancer fails the test instead of hanging it.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut scans = 0u32;
        while scans < 40 || map.rebalances() == 0 {
            assert!(Instant::now() < deadline, "no rebalance completed in 30s");
            let keys: Vec<u64> =
                map.scan_entries(Bound::Unbounded, Bound::Unbounded).map(|(k, _)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "scan must stay strictly ascending");
            assert!(keys.iter().all(|k| k % 4 != 1), "phantom key from the never-inserted class");
            let present: Vec<u64> = keys.iter().copied().filter(|k| k % 4 == 3).collect();
            let expected: Vec<u64> = (3..SPAN).step_by(4).collect();
            assert_eq!(present, expected, "an always-present key went missing mid-rebalance");
            scans += 1;
        }
        stop.store(true, AtOrd::Release);
        for c in churners {
            c.join().unwrap();
        }
        assert!(flipper.join().unwrap() > 0);
    }

    /// Contended-key accounting across continuous rebalances: every
    /// successful insert/remove transition is tallied, so a write lost in a
    /// cutover (landing on an already-reconciled tree) breaks the balance.
    #[test]
    fn no_write_is_lost_across_cutovers() {
        const KEYS: u64 = 64;
        let map = Arc::new(new_map(2, KEYS));
        let stop = Arc::new(AtomicBool::new(false));
        let flipper = spawn_flipper(Arc::clone(&map), Arc::clone(&stop));
        let balance: Arc<Vec<AtomicI64>> = Arc::new((0..KEYS).map(|_| AtomicI64::new(0)).collect());
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let map = Arc::clone(&map);
                let balance = Arc::clone(&balance);
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xB0B + t);
                    for _ in 0..10_000 {
                        let k = rng.gen_range(0..KEYS);
                        if rng.gen_bool(0.5) {
                            if map.insert(k, k) {
                                balance[k as usize].fetch_add(1, AtOrd::Relaxed);
                            }
                        } else if map.remove(&k).is_some() {
                            balance[k as usize].fetch_sub(1, AtOrd::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        await_first_rebalance(|| map.rebalances());
        stop.store(true, AtOrd::Release);
        assert!(flipper.join().unwrap() > 0);
        let mut expected = 0usize;
        for k in 0..KEYS {
            let b = balance[k as usize].load(AtOrd::Relaxed);
            assert!(b == 0 || b == 1, "impossible balance {b} for key {k}");
            assert_eq!(map.contains_key(&k), b == 1, "membership mismatch for key {k}");
            expected += b as usize;
        }
        assert_eq!(map.len(), expected);
    }

    /// Whole-strip teardown: a range covering strips 1 and 2 of four swaps
    /// them for empty trees through the cutover (observable as rebalance-free
    /// table switches leaving the boundaries intact) while the clipped edge
    /// strips are swept in place.
    #[test]
    fn strip_teardown_swaps_covered_strips_and_sweeps_the_edges() {
        let map = new_map(4, 1_000); // strips [0,250) [250,500) [500,750) [750,..)
        for k in 0..1_000u64 {
            map.insert(k, k);
        }
        let removed = OrderedMap::remove_range(&map, Bound::Included(&100), Bound::Excluded(&800));
        assert_eq!(removed, 700);
        assert_eq!(map.len(), 300);
        assert_eq!(map.boundaries(), vec![250, 500, 750], "teardown never moves split points");
        let left: Vec<u64> =
            map.entries_between(Bound::Unbounded, Bound::Unbounded).iter().map(|e| e.0).collect();
        assert_eq!(left, (0..100).chain(800..1_000).collect::<Vec<_>>());
        // The map stays fully writable after the swap.
        assert!(map.insert(400, 4));
        assert_eq!(map.get(&400), Some(4));
        // A full-span teardown clears every strip by pure swaps.
        assert_eq!(OrderedMap::remove_range(&map, Bound::Unbounded, Bound::Unbounded), 301);
        assert!(map.is_empty());
    }

    /// Filtered swap: a retain sweep over fully covered strips publishes
    /// pre-filtered replacement trees whose contents equal the frozen
    /// source filtered by the predicate.
    #[test]
    fn strip_teardown_retain_filters_covered_strips() {
        let map = new_map(4, 1_000);
        for k in 0..1_000u64 {
            map.insert(k, k);
        }
        let removed = map.retain_range(Bound::Unbounded, Bound::Excluded(&500), &|k, _| k % 2 == 0);
        assert_eq!(removed, 250);
        assert_eq!(map.len(), 750);
        assert!((0..500u64).all(|k| map.contains_key(&k) == (k % 2 == 0)));
        assert!((500..1_000u64).all(|k| map.contains_key(&k)));
        // Inverted bounds stay a no-op, matching the workspace contract.
        assert_eq!(OrderedMap::remove_range(&map, Bound::Included(&600), Bound::Included(&10)), 0);
        assert_eq!(map.len(), 750);
    }

    /// Teardown under write pressure: concurrent single-key writers on the
    /// covered strips either land before the cutover (and die with the strip)
    /// or retry onto the replacement trees — the per-key insert/remove
    /// balance never breaks.
    #[test]
    fn strip_teardown_races_with_writers() {
        const SPAN: u64 = 1_024;
        let map = Arc::new(new_map(4, SPAN));
        for k in 0..SPAN {
            map.insert(k, k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3u64)
            .map(|t| {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x7EA8 + t);
                    while !stop.load(AtOrd::Acquire) {
                        let k = rng.gen_range(0..SPAN);
                        if rng.gen_bool(0.5) {
                            map.upsert(k, k);
                        } else {
                            map.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for _ in 0..20 {
            OrderedMap::remove_range(&*map, Bound::Unbounded, Bound::Unbounded);
        }
        stop.store(true, AtOrd::Release);
        for w in writers {
            w.join().unwrap();
        }
        // Quiescent sanity: scans agree with point reads after the storm.
        let scanned = map.entries_between(Bound::Unbounded, Bound::Unbounded);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scanned.len(), map.len());
        for (k, v) in scanned {
            assert_eq!(map.get(&k), Some(v));
        }
    }

    #[test]
    fn load_tallies_track_ops_and_survive_foreign_splits() {
        let map = new_map(2, 1_000);
        for _ in 0..100 {
            map.get(&10); // strip 0
        }
        for k in 600..650u64 {
            map.insert(k, k); // strip 1
        }
        assert_eq!(map.load_per_shard(), vec![100, 50]);
        // Splitting strip 1 replaces its tally but must not disturb strip 0's
        // (the strip is shared by `Arc` across the table switch).
        assert!(map.split(1, 625));
        let loads = map.load_per_shard();
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[0], 100, "untouched strip's tally survives the switch");
        let taken = map.take_loads();
        assert_eq!(taken[0], 100);
        assert_eq!(map.load_per_shard(), vec![0, 0, 0], "take_loads resets the window");
    }
}
