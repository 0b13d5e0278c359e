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
//! * **Writers are briefly gated.**  Split, merge and whole-strip teardown
//!   are one migration (`ElasticMap::replace_run`): it replaces a contiguous
//!   run of strips with fresh trees laid out by new split points, holding
//!   the run's entries a keep rule admits (all of them for split and merge,
//!   none or a predicate's survivors for teardown).  It must hand the
//!   *final* state of the old trees to the fresh ones, so the cutover
//!   freezes writes to the run only: a writer registers itself in the
//!   strip's in-flight counter and re-validates the table pointer (both
//!   seqcst, see `ElasticMap::with_write`); the migrator publishes a
//!   `blocked` table, waits for registered writers to drain, reconciles the
//!   fresh trees against the now-frozen old ones, and publishes the final
//!   table.  Writers that meet a blocked strip spin briefly and land on the
//!   fresh trees.  Writes to *other* strips are completely unaffected —
//!   their `Strip` objects are shared (`Arc`) between the old and new
//!   tables.
//! * **Scans stream strip by strip.**  A scan captures the strip trees
//!   covering its range (by `Arc`) and concatenates their own cursors, one
//!   strip at a time: strips are key-disjoint and ascending, so no merge is
//!   needed, and the capture outlives any table switch.  A half-consumed
//!   scan holds what its open strip cursor holds between pulls (for
//!   `LfBst`, one repinning `RangeIter` pin).
//! * **Old state is retired, not leaked.**  Superseded tables go through the
//!   pluggable [`Reclaimer`] (`defer_destroy`, backend-generic: EBR or IBR);
//!   drained trees are dropped when the last retired table and the last
//!   in-flight scan release their `Arc`s.
//!
//! See `DESIGN.md` §9 for the full protocol and its safety argument.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crossbeam_epoch::{Atomic, Ebr, Owned, ReclaimGuard, Reclaimer, Shared};
use cset::{ConcurrentMap, LoadTally, OrderedMap, StatsSnapshot};

use crate::router::{BoundaryRouter, ShardRouter};
use crate::sharded::config_name;

/// The keep rule of a strip migration: the entries of the replaced strips
/// it admits survive into the fresh trees (`None` admits none, as
/// `remove_range`'s whole-strip teardown does).
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

/// An immutable routing table: the unit the epoch switch publishes — a
/// [`BoundaryRouter`] with one tree attached per strip.
struct Table<S> {
    router: BoundaryRouter,
    strips: Vec<Strip<S>>,
    /// Inclusive strip interval currently under cutover: writes routed there
    /// must retry on the successor table.
    blocked: Option<(usize, usize)>,
}

impl<S> Table<S> {
    #[inline]
    fn is_blocked(&self, strip: usize) -> bool {
        matches!(self.blocked, Some((lo, hi)) if strip >= lo && strip <= hi)
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
        let router = BoundaryRouter::new(bounds);
        let strips: Vec<Strip<S>> =
            (0..router.shard_count()).map(|_| Strip::new(Arc::new(make()))).collect();
        let name = config_name(strips[0].tree.name(), strips.len(), "elastic");
        ElasticMap {
            table: Atomic::new(Table { router, strips, blocked: None }),
            make: Box::new(make),
            name,
            rebalances: AtomicU64::new(0),
            migrate: Mutex::new(()),
            _backend: PhantomData,
        }
    }

    /// Creates a map with `shards` equal-width strips over `[0, span)`
    /// (high keys land in the last strip), laid out by
    /// [`BoundaryRouter::covering`].
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
        let bounds = BoundaryRouter::covering(shards, span).bounds().to_vec();
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
        unsafe { self.table.load(Ordering::Acquire, &guard).deref() }.router.bounds().to_vec()
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
        let strip = &t.strips[t.router.route(&key)];
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
                let idx = t.router.route(&key);
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
    /// The migration (bulk copy concurrent with writers, gated cutover and
    /// reconcile, publish) is described in the module docs.
    pub fn split<V>(&self, strip_idx: usize, pivot: u64) -> bool
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        self.rebalance(strip_idx..=strip_idx, vec![pivot])
    }

    /// Merges strips `left_idx` and `left_idx + 1` into one, publishing a
    /// table with one fewer strip.  Returns `false` if the index is stale.
    ///
    /// Same migration as [`split`](Self::split) with two source strips: both
    /// are blocked and drained before the reconcile.
    pub fn merge<V>(&self, left_idx: usize) -> bool
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        self.rebalance(left_idx..=left_idx + 1, Vec::new())
    }

    /// A split or merge: migrates `run` to fresh trees split at `mid`,
    /// keeping every entry, and counts the completed switch.
    fn rebalance<V>(&self, run: RangeInclusive<usize>, mid: Vec<u64>) -> bool
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        let serialized = self.migrate.lock().expect("rebalance lock poisoned");
        let done = self.replace_run(&serialized, run, mid, Some(&|_: &u64, _: &V| true)).is_some();
        if done {
            self.rebalances.fetch_add(1, Ordering::Relaxed);
        }
        done
    }

    /// The one strip migration behind split, merge and whole-strip teardown:
    /// replaces the contiguous strips `run` with fresh trees split at `mid`
    /// (one tree more than split points), holding exactly the entries of the
    /// run's frozen trees that `keep` admits (`None` admits none).
    ///
    /// Returns how many entries the replacement evicted (the sources' `len()`
    /// minus the fresh trees'), or `None`, doing nothing, if `run` or `mid`
    /// does not fit the current table.  `_serialized` is the held migrate
    /// lock, so the table validated here is the table replaced.
    ///
    /// 1. Copy the admitted entries into the fresh trees, median-first, while
    ///    writers continue on the run's trees.  The fresh trees are private
    ///    until publication, so plain inserts cannot conflict.
    /// 2. Publish a table with the run blocked and wait out its writers, then
    ///    reconcile the fresh trees against the now-frozen sources.
    /// 3. Publish the final table.  The sources leave it and are dropped once
    ///    the retired tables and in-flight scans release their `Arc`s.
    ///
    /// Keep-nothing skips the copy and the reconcile: the fresh trees stay
    /// empty and the swap is one bulk drop.
    fn replace_run<V>(
        &self,
        _serialized: &MutexGuard<'_, ()>,
        run: RangeInclusive<usize>,
        mid: Vec<u64>,
        keep: Option<StripKeepFn<'_, V>>,
    ) -> Option<usize>
    where
        S: OrderedMap<u64, V>,
        V: PartialEq,
    {
        let (router0, strips0) = self.current();
        let (first, last) = (*run.start(), *run.end());
        let inside = |k: &u64| {
            *k > router0.strip_lower(first) && router0.strip_upper(last).map_or(true, |u| *k < u)
        };
        if first > last
            || last >= strips0.len()
            || !mid.iter().all(inside)
            || !mid.windows(2).all(|w| w[0] < w[1])
        {
            return None;
        }
        let sources: Vec<Arc<S>> =
            strips0[run.clone()].iter().map(|s| Arc::clone(&s.tree)).collect();
        let fresh: Vec<Arc<S>> = (0..=mid.len()).map(|_| Arc::new((self.make)())).collect();
        // `mid` lies strictly inside the run, so it never holds 0 and routes
        // a run key to its fresh tree.
        let layout = BoundaryRouter::new(mid);

        // Phase 1 — bulk copy.
        if let Some(keep) = keep {
            let mut parts: Vec<Vec<(u64, V)>> = fresh.iter().map(|_| Vec::new()).collect();
            for (k, v) in entries(&sources).filter(|(k, v)| keep(k, v)) {
                parts[layout.route(&k)].push((k, v));
            }
            for (tree, part) in fresh.iter().zip(parts) {
                balanced_load(&**tree, part);
            }
        }

        // Phase 2 — cutover: block the run, drain its writers, reconcile the
        // (now bounded) drift the concurrent copy accumulated.
        let guard = R::pin();
        let blocked = Table {
            router: router0.clone(),
            strips: strips0.clone(),
            blocked: Some((first, last)),
        };
        let prev = self.table.swap(Owned::new(blocked), Ordering::SeqCst, &guard);
        // SAFETY: the swap unlinked `prev`, so no later load reaches it, and
        // only this migration (holding the migrate lock) retires it; readers
        // pinned before the swap keep it alive until they unpin.
        unsafe { guard.defer_destroy(prev) };
        for strip in &strips0[run.clone()] {
            Self::await_writers(strip);
        }
        if let Some(keep) = keep {
            reconcile(
                entries(&sources).filter(|(k, v)| keep(k, v)),
                entries(&fresh),
                &layout,
                &fresh,
            );
        }
        let len = |trees: &[Arc<S>]| trees.iter().map(|t| t.len()).sum::<usize>();
        let removed = len(&sources).saturating_sub(len(&fresh));

        // Phase 3 — publish the new layout.
        let mut bounds = router0.bounds().to_vec();
        bounds.splice(first..last, layout.bounds().iter().copied());
        let mut strips = strips0;
        strips.splice(run, fresh.into_iter().map(Strip::new));
        let t2 = Table { router: BoundaryRouter::new(bounds), strips, blocked: None };
        let prev = self.table.swap(Owned::new(t2), Ordering::SeqCst, &guard);
        // SAFETY: as for the blocked table above.
        unsafe { guard.defer_destroy(prev) };
        Some(removed)
    }

    /// The published table's router and strips, cloned under a short pin.
    fn current(&self) -> (BoundaryRouter, Vec<Strip<S>>) {
        let guard = R::pin();
        // SAFETY: the pointer is null only after `Drop` began, and the pin
        // keeps the loaded table from being freed while it is cloned.
        let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
        (t.router.clone(), t.strips.clone())
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
    /// Scans run over this owned snapshot, so the table pin ends here and a
    /// scan keeps the streaming scans' weak-consistency contract across a
    /// rebalance: keys present for the whole scan in the *captured* trees
    /// appear;
    /// entries migrated into strips created after the capture are
    /// concurrent updates and may be missed.
    fn snapshot_trees(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<Arc<S>> {
        let guard = R::pin();
        let t = unsafe { self.table.load(Ordering::Acquire, &guard).deref() };
        let Some(span) = t.router.span(lo, hi) else {
            return Vec::new();
        };
        t.strips[span].iter().map(|s| Arc::clone(&s.tree)).collect()
    }

    /// The whole-strip teardown behind the map facade's bulk mutations.
    ///
    /// Strips **fully covered** by `[lo, hi]` are not drained key by key:
    /// they form one contiguous run, which [`replace_run`](Self::replace_run)
    /// replaces under the same split points with empty trees (`keep = None`)
    /// or with pre-filtered, reconciled ones.  The old trees are dropped in
    /// bulk instead of a removal-protocol run per key.  Boundary strips the
    /// range only clips are swept by their trees' own streaming sweeps
    /// (linearizable per key, no epoch switch), still under the migrate lock
    /// so that no split or merge can replace a tree mid-sweep.
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
        let serialized = self.migrate.lock().expect("rebalance lock poisoned");
        let (router0, strips0) = self.current();
        let Some(span) = router0.span(lo, hi) else {
            return 0;
        };
        // Strip `i` holds the keys `[lower, upper)`; both are intervals, so
        // the range covers the strip when it holds the strip's end keys.
        // Split points are non-zero, so `u - 1` cannot underflow.
        let covered = |i: usize| {
            let last_key = router0.strip_upper(i).map_or(u64::MAX, |u| u - 1);
            (lo, hi).contains(&router0.strip_lower(i)) && (lo, hi).contains(&last_key)
        };
        let full: Vec<usize> = span.clone().filter(|&i| covered(i)).collect();
        let mut removed = 0usize;
        if let (Some(&f0), Some(&f1)) = (full.first(), full.last()) {
            debug_assert_eq!(full.len(), f1 - f0 + 1, "covered strips form one contiguous run");
            let mid = router0.bounds()[f0..f1].to_vec();
            removed += self
                .replace_run(&serialized, f0..=f1, mid, keep)
                .expect("a covered run fits the table it was read from");
        }
        // Clipped strips are outside the run, so `strips0` still holds their
        // live trees.
        for i in span.filter(|&i| !covered(i)) {
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

/// The ascending entry stream of key-disjoint, ascending `trees`, paged
/// through `cset::chunked_scan_entries` so that a migration writing between
/// pulls holds no reclamation pin across its writes.
fn entries<'t, S, V>(trees: &'t [Arc<S>]) -> impl Iterator<Item = (u64, V)> + 't
where
    S: OrderedMap<u64, V>,
    V: 't,
{
    trees.iter().flat_map(|t| cset::chunked_scan_entries(&**t, Bound::Unbounded, Bound::Unbounded))
}

/// Makes the target trees' contents exactly equal `oracle` (the frozen
/// sources' admitted entries) given `current` (the targets' present
/// contents): both streams are ascending, so one sorted merge-walk inserts
/// the missing keys, removes the extra ones, and re-upserts values that
/// drifted during the concurrent copy phase.  `layout` routes each key to
/// its target.
fn reconcile<S, V>(
    oracle: impl Iterator<Item = (u64, V)>,
    current: impl Iterator<Item = (u64, V)>,
    layout: &BoundaryRouter,
    targets: &[Arc<S>],
) where
    S: ConcurrentMap<u64, V>,
    V: PartialEq,
{
    let pick = |k: u64| &targets[layout.route(&k)];
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
    /// key-disjoint and ascending, so concatenating the strips' own cursors,
    /// opened one at a time, yields one globally ascending scan with no
    /// merge and no page buffer.  A half-consumed cursor holds the
    /// open strip cursor's pin between pulls, as `LfBst::scan_entries`
    /// does.  The capture is what lets a scan span a rebalance — see
    /// `ElasticMap::snapshot_trees` for the consistency contract.
    fn scan_entries<'a>(&'a self, lo: Bound<&u64>, hi: Bound<&u64>) -> cset::EntryCursor<'a, u64, V>
    where
        V: 'a,
    {
        Box::new(ElasticScan::new(self.snapshot_trees(lo, hi), lo, hi))
    }

    fn entries_between_limited(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        limit: usize,
    ) -> Vec<(u64, V)> {
        self.scan_entries(lo, hi).take(limit).collect()
    }

    fn last_entry(&self) -> Option<(u64, V)> {
        let trees = self.snapshot_trees(Bound::Unbounded, Bound::Unbounded);
        trees.iter().rev().find_map(|t| t.last_entry())
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

/// The owning cursor behind [`ElasticMap`]'s `scan_entries`: a lazy
/// concatenation of the captured strips' own cursors.
///
/// Only one strip cursor is open at a time.  The next strip's cursor opens
/// when the previous one drains, starting strictly above the last key
/// yielded, so the stream stays strictly ascending across strips.  The
/// trees are held by `Arc`, so the scan survives the routing table that
/// produced it being retired.  Between pulls the open strip cursor keeps
/// whatever its tree's cursor keeps: for `LfBst`, one `RangeIter` pin,
/// refreshed every `REPIN_SCAN_EVERY` items.
struct ElasticScan<'a, S, V> {
    /// The open strip's cursor, borrowing `trees[next_tree - 1]`.  Declared
    /// before `trees` so that it drops first.
    strip: Option<cset::EntryCursor<'a, u64, V>>,
    trees: Vec<Arc<S>>,
    next_tree: usize,
    lo: Bound<u64>,
    hi: Bound<u64>,
    /// Highest key already yielded; the next strip starts strictly above it.
    last_key: Option<u64>,
}

impl<S, V> ElasticScan<'_, S, V> {
    /// Concatenates `trees`, which must be key-disjoint and ascending.
    fn new(trees: Vec<Arc<S>>, lo: Bound<&u64>, hi: Bound<&u64>) -> Self {
        let (lo, hi) = (lo.cloned(), hi.cloned());
        ElasticScan { strip: None, trees, next_tree: 0, lo, hi, last_key: None }
    }
}

impl<'a, S, V> Iterator for ElasticScan<'a, S, V>
where
    S: OrderedMap<u64, V> + 'a,
    V: 'a,
{
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        loop {
            if let Some((k, v)) = self.strip.as_mut().and_then(Iterator::next) {
                self.last_key = Some(k);
                return Some((k, v));
            }
            // The open strip is drained: release its cursor (and its pin)
            // before opening the next one.
            self.strip = None;
            let tree = self.trees.get(self.next_tree)?;
            self.next_tree += 1;
            let lo = match self.last_key {
                Some(k) => Bound::Excluded(k),
                None => self.lo,
            };
            // SAFETY: the tree lives behind an `Arc` in `self.trees`, which
            // is never shrunk and drops after `self.strip`, so the `Arc`
            // target neither moves nor is freed while the cursor borrowing
            // it is alive.  The cursor is the only holder of the borrow:
            // every item it yields is an owned `(u64, V)`.
            let tree: &'a S = unsafe { &*Arc::as_ptr(tree) };
            self.strip = Some(tree.scan_entries(lo.as_ref(), self.hi.as_ref()));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering as AtOrd};
    use std::thread;
    use std::time::{Duration, Instant};

    use cset::ConcurrentMap;
    use lfbst::{Ibr, LfBst};
    use locked_bst::CoarseLockMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::tests::Spy;

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

    /// A scan cursor opened before a rebalance must stream straight through
    /// the router switch: the captured strips are frozen by `Arc`, so the
    /// stream stays exactly the capture-time contents, sorted.
    fn scan_spans_a_router_switch<R: Reclaimer>() {
        let map: ElasticMap<LfBst<u64, u64, R>, R> = ElasticMap::covering(2, 1_000, LfBst::new_in);
        for k in 0..1_000u64 {
            map.insert(k, k);
        }
        let mut cursor = map.scan_entries(Bound::Unbounded, Bound::Unbounded);
        let mut seen: Vec<u64> = (&mut cursor).take(10).map(|(k, _)| k).collect();
        // Split the strip the cursor is currently streaming, then merge the
        // far end: two full epoch switches mid-scan.
        assert!(map.split(0, 123));
        assert!(map.merge(map.shard_count() - 2));
        // Post-capture writes must not corrupt the in-flight stream.
        map.insert(2_000, 2_000);
        map.remove(&700);
        seen.extend(cursor.map(|(k, _)| k));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "scan stays strictly ascending");
        // The capture predates both the insert and the remove, and captured
        // trees are only written through the cutover gate the scan does not
        // hold — so the scan yields exactly the capture-time keys.
        assert_eq!(seen, (0..1_000u64).collect::<Vec<_>>(), "on {}", R::NAME);
        drop(map);
    }

    #[test]
    fn scan_spans_a_router_switch_ebr() {
        scan_spans_a_router_switch::<crossbeam_epoch::Ebr>();
    }

    #[test]
    fn scan_spans_a_router_switch_ibr() {
        scan_spans_a_router_switch::<crossbeam_epoch::Ibr>();
    }

    /// An early-exit scan pulls from the strips only what it yields (plus at
    /// most one look-ahead), within one strip and across a strip boundary.
    #[test]
    fn early_exit_scan_pulls_only_what_it_yields() {
        let handed_out = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&handed_out);
        let map: ElasticMap<Spy<u64>> = ElasticMap::covering(2, 1_000, move || Spy {
            handed_out: Arc::clone(&counter),
            ..Spy::default()
        });
        for k in 0..1_000u64 {
            map.insert(k, k);
        }
        for (lo, expected) in [(0u64, [0u64, 1, 2, 3, 4]), (497, [497, 498, 499, 500, 501])] {
            handed_out.store(0, AtOrd::Relaxed);
            let keys: Vec<u64> = map
                .scan_entries(Bound::Included(&lo), Bound::Unbounded)
                .take(5)
                .map(|e| e.0)
                .collect();
            assert_eq!(keys, expected);
            let pulled = handed_out.load(AtOrd::Relaxed);
            assert!(pulled <= 6, "take(5) from {lo} pulled {pulled} entries from the strips");
        }
    }

    /// A half-consumed scan holds its strip cursor's pin, so nothing retired
    /// meanwhile can be freed; dropping it releases the pin, and a later
    /// collection frees what was retired while it was alive.
    #[test]
    fn dropping_a_half_consumed_scan_releases_its_pin() {
        let map: ElasticMap<LfBst<u64, Arc<u64>>> = ElasticMap::covering(2, 1_000, LfBst::new);
        let mut doomed = Vec::new();
        for k in 0..1_000u64 {
            let v = Arc::new(k);
            if (500..600).contains(&k) {
                doomed.push(Arc::downgrade(&v));
            }
            map.insert(k, v);
        }
        let mut cursor = map.scan_entries(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(cursor.next().map(|e| e.0), Some(0));
        for k in 500..600u64 {
            assert!(map.remove(&k).is_some());
        }
        Ebr::collect();
        assert!(
            doomed.iter().all(|w| w.strong_count() == 1),
            "a value retired under the scan's pin was freed"
        );
        drop(cursor);
        let deadline = Instant::now() + Duration::from_secs(30);
        while doomed.iter().any(|w| w.strong_count() != 0) {
            assert!(Instant::now() < deadline, "values retired under the dropped scan never freed");
            Ebr::collect();
            thread::yield_now();
        }
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

    /// The keep rule judges values, not only keys, and a filtered swap
    /// carries the kept values over: a retain sweep by value over two covered
    /// strips and two clipped ones leaves exactly the admitted entries, each
    /// with the value it had.
    #[test]
    fn strip_teardown_retain_judges_and_keeps_values() {
        let map = new_map(4, 1_000); // strips [0,250) [250,500) [500,750) [750,..)
        for k in 0..1_000u64 {
            map.insert(k, k * 7 % 10);
        }
        let removed =
            map.retain_range(Bound::Included(&100), Bound::Excluded(&900), &|_, v| *v < 5);
        assert_eq!(removed, (100..900u64).filter(|k| k * 7 % 10 >= 5).count());
        assert_eq!(map.boundaries(), vec![250, 500, 750], "teardown never moves split points");
        let expected: Vec<(u64, u64)> = (0..1_000u64)
            .map(|k| (k, k * 7 % 10))
            .filter(|&(k, v)| !(100..900).contains(&k) || v < 5)
            .collect();
        assert_eq!(map.entries_between(Bound::Unbounded, Bound::Unbounded), expected);
        assert_eq!(map.len(), expected.len());
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

    /// `reconcile` repairs each kind of drift a concurrent copy leaves — a
    /// key the copy missed, a key it over-copied, a value that drifted — on
    /// the target its key routes to, so each target ends equal to its slice
    /// of the oracle.
    #[test]
    fn reconcile_makes_each_target_its_slice_of_the_oracle() {
        let oracle: BTreeMap<u64, u64> = [(10, 1), (20, 2), (60, 6), (70, 7)].into();
        let targets: Vec<Arc<LfBst<u64, u64>>> =
            vec![Arc::new(LfBst::new()), Arc::new(LfBst::new())];
        // Split at 50: target 0 holds [0, 50), target 1 the rest.
        let layout = BoundaryRouter::new(vec![50]);
        targets[0].insert(10, 1);
        targets[0].insert(30, 3); // extra: copied, then removed from the source
        targets[1].insert(60, 99); // drifted: upserted after the copy passed it
        targets[1].insert(70, 7);
        // 20 is missing: inserted into the source after the copy passed it.
        // The current stream is live, as in a migration.
        reconcile(oracle.iter().map(|(&k, &v)| (k, v)), entries(&targets), &layout, &targets);
        let slice = |r: std::ops::Range<u64>| -> Vec<(u64, u64)> {
            oracle.range(r).map(|(&k, &v)| (k, v)).collect()
        };
        let all = |t: &LfBst<u64, u64>| t.entries_between(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all(&targets[0]), slice(0..50));
        assert_eq!(all(&targets[1]), slice(50..u64::MAX));
    }

    /// The migration validates its whole plan before it publishes anything:
    /// a run past the table, an inverted run, a split point outside the run
    /// or split points out of order leave the table exactly as it was.
    #[test]
    fn replace_run_rejects_a_plan_that_does_not_fit() {
        let map = new_map(4, 1_000); // strips [0,250) [250,500) [500,750) [750,..)
        for k in 0..1_000u64 {
            map.insert(k, k);
        }
        let keep_all = |_: &u64, _: &u64| true;
        let serialized = map.migrate.lock().unwrap();
        for (run, mid) in [
            (3..=4, vec![]),
            (RangeInclusive::new(2, 1), vec![]),
            (1..=2, vec![250]),
            (1..=2, vec![750]),
            (1..=2, vec![600, 300]),
        ] {
            let plan = format!("{run:?} at {mid:?}");
            assert_eq!(map.replace_run(&serialized, run, mid, Some(&keep_all)), None, "{plan}");
            assert_eq!(map.boundaries(), vec![250, 500, 750], "{plan}");
        }
        assert_eq!(map.replace_run(&serialized, 1..=2, vec![300, 600], Some(&keep_all)), Some(0));
        drop(serialized);
        assert_eq!(map.boundaries(), vec![250, 300, 600, 750]);
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.rebalances(), 0, "only split and merge count as rebalances");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn with_boundaries_rejects_unsorted_split_points() {
        let _: ElasticMap<LfBst<u64, u64>> =
            ElasticMap::with_boundaries(vec![500, 100], LfBst::new);
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
