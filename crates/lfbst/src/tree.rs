//! The public [`LfBst`] type: construction, `insert`, `contains`, the map
//! entry points (`insert_entry` / `get` / `upsert` / `remove_entry`), size
//! queries, the `OrderedMap` impl and teardown.  The removal protocol lives
//! in `remove.rs`, the traversal in `locate.rs`, the value cells in
//! `value.rs`.

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Ebr, Owned, Reclaimer, Shared};
use cset::{ConcurrentMap, KeyBound, OpStats, OrderedMap, StatsSnapshot};

use crate::config::{Config, HelpPolicy, RestartPolicy};
use crate::link::{is_clean, is_flag, is_mark, is_thread, same_node, THREAD};
use crate::node::Node;
use crate::trace_hooks::{dst_point, SpinBound};
use crate::value::{MapValue, ValueCell};

/// Per-site memory orderings, derived from the protocol's happens-before
/// argument (see `DESIGN.md`, "Memory ordering").
///
/// Every protocol decision is made by (re-)reading a single tagged link word
/// and every irreversible step is a CAS on such a word, so the algorithm only
/// needs the release/acquire edges below — never a total order over unrelated
/// locations:
///
/// * a traversal load that observes a published pointer must also observe the
///   node initialisation behind it (`LOAD` = `Acquire` pairs with the `AcqRel`
///   publishing CAS);
/// * a helper that observes a flag/mark must observe every protocol step the
///   flagging/marking thread performed before it (`Acquire` load pairs with
///   the `AcqRel` flag/mark/swing CAS);
/// * a failed CAS is only used as a signal to re-read and re-decide, so its
///   failure ordering can stay `Acquire`;
/// * the size counter and the `OpStats` counters are diagnostics, not
///   synchronization: `Relaxed`.
pub(crate) mod ord {
    use std::sync::atomic::Ordering;

    /// Traversal and protocol-state loads: pairs with `CAS` to make the
    /// pointed-to node (and the protocol steps preceding the store) visible.
    pub(crate) const LOAD: Ordering = Ordering::Acquire;
    /// Success ordering of every protocol CAS (inject, flag, mark, backlink
    /// fix, pointer swing): releases the steps performed so far and acquires
    /// the state being taken over.
    pub(crate) const CAS: Ordering = Ordering::AcqRel;
    /// Failure ordering of protocol CASes: the observed value is only used to
    /// re-decide, never as proof of someone else's protocol progress beyond
    /// what a fresh `LOAD` would give.
    pub(crate) const CAS_ERR: Ordering = Ordering::Acquire;
    /// Initialisation of a node that has not been published yet (insert's
    /// pre-threading, constructor wiring): the publishing CAS releases it.
    pub(crate) const INIT: Ordering = Ordering::Relaxed;
}

use ord::{CAS, CAS_ERR, INIT, LOAD};

/// Number of [`SizeCounter`] slots.
const SIZE_SLOTS: usize = 8;

/// One size-counter slot on its own pair of cache lines (adjacent-line
/// prefetch pulls lines in pairs).
#[repr(align(128))]
#[derive(Default)]
struct SizeSlot(AtomicUsize);

/// The tree's key count, striped so that writers on different threads bump
/// different cache lines: a successful insert or remove touches only its
/// thread's slot, and [`get`](Self::get) sums them.
///
/// A key inserted on one thread and removed on another moves its `+1` and
/// `-1` to different slots, so a slot may wrap below zero; the wrapping sum is
/// still the exact count once the updates land.
#[derive(Default)]
struct SizeCounter([SizeSlot; SIZE_SLOTS]);

impl SizeCounter {
    /// This thread's slot, picked once per thread, round-robin.
    fn slot(&self) -> &AtomicUsize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SIZE_SLOTS;
        }
        &self.0[SLOT.with(|s| *s)].0
    }

    fn add(&self, delta: isize) {
        self.slot().fetch_add(delta as usize, Ordering::Relaxed);
    }

    /// The sum of the slots, clamped at 0: exact at quiescence, a relaxed
    /// snapshot while updates are in flight (a remove counted before its
    /// insert can make the raw sum briefly negative).
    fn get(&self) -> usize {
        let sum =
            self.0.iter().fold(0usize, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)));
        (sum as isize).max(0) as usize
    }
}

/// A lock-free internal (threaded) binary search tree implementing an ordered
/// Set (`LfBst<K>`) or, with a value type, an ordered Map (`LfBst<K, V>`).
///
/// The second type parameter defaults to `()`: `LfBst<K>` **is**
/// `LfBst<K, ()>`, the paper's Set with its five-word node intact.  Only
/// `insert` is set-only (it needs no value); `remove`, `contains` and the
/// [`Pinned`](crate::Pinned) handle serve every value type.  Instantiating a
/// real value type turns the same protocol into a map: the value rides in a
/// cell beside the key (see [`MapValue`]) and `insert_entry` /
/// [`get`](Self::get) / [`upsert`](Self::upsert) /
/// [`remove_entry`](Self::remove_entry) carry it end to end.
///
/// Each operation has one public entry point.  A batch of point operations
/// under one epoch pin goes through [`pin`](Self::pin); ordered reads go
/// through [`range_iter`](Self::range_iter) /
/// [`range_cursor`](Self::range_cursor) or the [`OrderedMap`] /
/// [`OrderedSet`](cset::OrderedSet) traits.
///
/// See the [crate-level documentation](crate) for the algorithm overview and
/// `DESIGN.md` for the full protocol description (including "Values on an
/// internal BST" for the map extension).
///
/// # Examples
///
/// The set face:
///
/// ```
/// use lfbst::LfBst;
///
/// let set = LfBst::new();
/// assert!(set.insert(10));
/// assert!(set.insert(20));
/// assert!(!set.insert(10));
/// assert!(set.contains(&10));
/// assert!(set.remove(&10));
/// assert!(!set.contains(&10));
/// assert_eq!(set.len(), 1);
/// ```
///
/// The map face:
///
/// ```
/// use lfbst::LfBst;
///
/// let map: LfBst<u64, String> = LfBst::new();
/// assert!(map.insert_entry(1, "one".into()));
/// assert_eq!(map.get(&1).as_deref(), Some("one"));
/// assert_eq!(map.upsert(1, "uno".into()).as_deref(), Some("one"));
/// assert_eq!(map.remove_entry(&1).as_deref(), Some("uno"));
/// assert_eq!(map.get(&1), None);
/// ```
pub struct LfBst<K, V: MapValue = (), R: Reclaimer = Ebr> {
    /// `root[0]` holds `-inf` and is the left child (and predecessor) of
    /// `root[1]`, which holds `+inf`.  Neither is ever removed.
    pub(crate) roots: [*mut Node<K, V>; 2],
    pub(crate) config: Config,
    pub(crate) stats: OpStats,
    size: SizeCounter,
    /// The reclamation backend is a zero-sized marker: all its state is
    /// process-global and per-thread (see [`Reclaimer`]).
    pub(crate) reclaimer: PhantomData<R>,
}

unsafe impl<K: Send + Sync, V: MapValue, R: Reclaimer> Send for LfBst<K, V, R> {}
unsafe impl<K: Send + Sync, V: MapValue, R: Reclaimer> Sync for LfBst<K, V, R> {}

impl<K: Ord, V: MapValue, R: Reclaimer> Default for LfBst<K, V, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<K, V: MapValue, R: Reclaimer> fmt::Debug for LfBst<K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfBst")
            .field("len", &self.size.get())
            .field("config", &self.config)
            .finish()
    }
}

/// How [`LfBst::insert_core`] ended.
pub(crate) enum InsertOutcome<'g, K, V: MapValue> {
    /// The new node was published; the key was absent.
    Inserted,
    /// The key was already present; the unpublished node was dismantled and
    /// its key and value handed back.
    Present {
        /// The node currently holding the key.
        existing: Shared<'g, Node<K, V>>,
        /// The key, returned for retry loops.
        key: K,
        /// The value, returned for retry loops.
        value: V,
    },
}

/// Constructors of the default (epoch-reclaimed) tree.
///
/// These two are *not* generic over the backend so that plain
/// `LfBst::new()` keeps inferring `R = Ebr` (default type parameters do not
/// drive inference); an explicit backend goes through
/// [`new_in`](LfBst::new_in) / [`with_config_in`](LfBst::with_config_in).
impl<K: Ord, V: MapValue> LfBst<K, V> {
    /// Creates an empty tree with the default [`Config`].
    pub fn new() -> Self {
        Self::with_config(Config::default())
    }

    /// Creates an empty tree with an explicit [`Config`].
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::{Config, HelpPolicy, LfBst};
    /// let set: LfBst<i32> = LfBst::with_config(Config::new().help_policy(HelpPolicy::WriteOptimized));
    /// assert!(set.is_empty());
    /// ```
    pub fn with_config(config: Config) -> Self {
        Self::with_config_in(config)
    }
}

impl<K: Ord, V: MapValue, R: Reclaimer> LfBst<K, V, R> {
    /// Creates an empty tree on an explicit reclamation backend.
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::{Ibr, LfBst};
    /// let set: LfBst<u64, (), Ibr> = LfBst::new_in();
    /// assert!(set.insert(7));
    /// ```
    pub fn new_in() -> Self {
        Self::with_config_in(Config::default())
    }

    /// Creates an empty tree with an explicit [`Config`] on an explicit
    /// reclamation backend.
    pub fn with_config_in(config: Config) -> Self {
        // Build the two permanent dummy nodes of listing line 7 / figure 2(c):
        //   root[0] = -inf : left thread to itself, right thread to root[1],
        //                    backlink to root[1].
        //   root[1] = +inf : left child root[0] (unthreaded), right thread to
        //                    itself (the paper uses null; a self thread avoids
        //                    null checks and is never followed).
        let r0 = epoch::alloc_raw(Node::<K, V>::new(KeyBound::NegInf));
        let r1 = epoch::alloc_raw(Node::<K, V>::new(KeyBound::PosInf));
        let s0: Shared<'_, Node<K, V>> = Shared::from(r0 as *const Node<K, V>);
        let s1: Shared<'_, Node<K, V>> = Shared::from(r1 as *const Node<K, V>);
        unsafe {
            (*r0).child[0].store(s0.with_tag(THREAD), INIT);
            (*r0).child[1].store(s1.with_tag(THREAD), INIT);
            (*r0).backlink.store(s1, INIT);
            (*r1).child[0].store(s0, INIT);
            (*r1).child[1].store(s1.with_tag(THREAD), INIT);
            (*r1).backlink.store(s1, INIT);
        }
        LfBst {
            roots: [r0, r1],
            config,
            stats: OpStats::new(),
            size: SizeCounter::default(),
            reclaimer: PhantomData,
        }
    }

    /// The `-inf` dummy node.
    #[inline]
    pub(crate) fn root0<'g>(&self) -> Shared<'g, Node<K, V>> {
        Shared::from(self.roots[0] as *const Node<K, V>)
    }

    /// The `+inf` dummy node.
    #[inline]
    pub(crate) fn root1<'g>(&self) -> Shared<'g, Node<K, V>> {
        Shared::from(self.roots[1] as *const Node<K, V>)
    }

    #[inline]
    pub(crate) fn eager_help(&self) -> bool {
        self.config.help_policy == HelpPolicy::WriteOptimized
    }

    #[inline]
    pub(crate) fn restart_from_root(&self) -> bool {
        self.config.restart_policy == RestartPolicy::Root
    }

    /// Returns `true` if operation statistics should be recorded.
    ///
    /// Without the `stats` cargo feature this is a compile-time `false`: the
    /// hot loops hoist it into a local, so every stats branch folds away and
    /// the traversal/removal paths compile to straight-line code.
    #[inline(always)]
    pub(crate) fn record_stats(&self) -> bool {
        cfg!(feature = "stats") && self.config.record_stats
    }

    /// Compares `node`'s key against a real search key, resolving the two
    /// sentinel-carrying root dummies by pointer before touching the key.
    ///
    /// The roots never move, so the pointer checks shortcut the sentinel
    /// cases; every other node compares through the `Key` arm of its
    /// `KeyBound` — a branch the predictor resolves perfectly because, by
    /// construction (`insert` allocates real keys only), non-root nodes are
    /// never sentinels.  The sentinel arms are still kept semantically
    /// identical to [`KeyBound::cmp_key`] rather than declared unreachable:
    /// on a stale traversal under heavy churn a defensive comparison must
    /// degrade to the reference semantics, not to undefined behaviour.
    #[inline(always)]
    pub(crate) fn cmp_node_key(&self, node: Shared<'_, Node<K, V>>, key: &K) -> CmpOrdering {
        let raw = node.with_tag(0).as_raw();
        if std::ptr::eq(raw, self.roots[0]) {
            return CmpOrdering::Less; // -inf
        }
        if std::ptr::eq(raw, self.roots[1]) {
            return CmpOrdering::Greater; // +inf
        }
        unsafe { &*raw }.key.cmp_key(key)
    }

    /// Returns the configuration this tree was built with.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Returns a snapshot of the operation statistics (all zero unless the tree
    /// was built with [`Config::record_stats`] enabled).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resets the operation statistics to zero.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Returns the number of keys currently in the set.
    ///
    /// The count is maintained by successful inserts and removes in
    /// per-thread counter slots (so disjoint writers share no cache line) and
    /// summed here; it is exact in quiescent states and approximate while
    /// mutations are in flight.  The counter is a relaxed diagnostic: nothing
    /// in the protocol's correctness argument reads it.
    pub fn len(&self) -> usize {
        self.size.get()
    }

    /// Returns `true` if the set contains no keys (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `key` is in the set.
    ///
    /// In [`HelpPolicy::ReadOptimized`] mode this operation never writes to
    /// shared memory and never restarts (the paper's obliviousness property).
    pub fn contains(&self, key: &K) -> bool {
        self.contains_with(key, &R::pin())
    }

    /// [`contains`](Self::contains) under a caller-held guard: the body
    /// behind both it and [`Pinned::contains`](crate::Pinned::contains).
    pub(crate) fn contains_with(&self, key: &K, guard: &R::Guard) -> bool {
        let loc =
            self.locate_from::<false>(self.root1(), self.root0(), key, self.eager_help(), guard);
        loc.dir == 2
    }

    /// The paper's `Add` (listing lines 161–183), generalised to carry a
    /// value: locate the threaded link whose key interval contains `key`, then
    /// publish the new node — value cell already initialised — with a single
    /// CAS on that link.  On failure the operation helps any obstructing
    /// removal and retries from the vicinity of the failure.
    ///
    /// The node is allocated only once an insertable link has been found, so
    /// a call on a present key allocates nothing.  If a retry then finds the
    /// key present after all, the unpublished node is dismantled.  Either way
    /// the key and value go back through [`InsertOutcome::Present`], so
    /// callers (`upsert`) can retry without cloning.
    pub(crate) fn insert_core<'g>(
        &self,
        key: K,
        value: V,
        guard: &'g R::Guard,
    ) -> InsertOutcome<'g, K, V> {
        let record = self.record_stats();
        // The entry, until it moves into `new` at the first insertable link;
        // that node then serves every retry.
        let mut entry = Some((key, value));
        // SAFETY (each `new.deref()` / `new.into_owned()` below): they run only
        // once `entry` is `None`, so `new` is the node this call allocated, and
        // it stays private to this call until the injection CAS publishes it,
        // after which the call returns without touching it.
        let mut new: Shared<'g, Node<K, V>> = Shared::null();

        let mut prev = self.root1();
        let mut curr = self.root0();
        let mut spin = SpinBound::new("insert_core");
        loop {
            spin.tick();
            dst_point!();
            let key_ref = match &entry {
                Some((k, _)) => k,
                None => {
                    unsafe { new.deref() }.key.as_key().expect("insert allocates real keys only")
                }
            };
            let loc = self.locate_from::<false>(prev, curr, key_ref, self.eager_help(), guard);
            if loc.dir == 2 {
                // Key already present: hand the entry back, dismantling the
                // unpublished node if one was built.
                let (key, value) = entry.unwrap_or_else(|| {
                    let value = unsafe { new.deref() }
                        .value
                        .take_unpublished()
                        .expect("unpublished node keeps its value");
                    let node = unsafe { new.into_owned() }.into_inner();
                    (node.key.into_key().expect("insert allocates real keys only"), value)
                });
                return InsertOutcome::Present { existing: loc.curr, key, value };
            }
            prev = loc.prev;
            curr = loc.curr;
            let curr_ref = unsafe { curr.deref() };
            let link = loc.link;

            if is_thread(link) && is_clean(link) {
                if let Some((key, value)) = entry.take() {
                    // Allocate and pre-thread the new node: its left link is a
                    // thread to itself (lines 163-164).  The node is unpublished
                    // until the injection CAS, so its initialisation (value cell
                    // included) can stay relaxed: the CAS releases it.
                    new = Owned::new(Node::<K, V>::new(KeyBound::Key(key))).into_shared(guard);
                    let new_ref = unsafe { new.deref() };
                    new_ref.value.init(value);
                    new_ref.child[0].store(new.with_tag(THREAD), INIT);
                }
                // Copy the located threaded link into the new node's right link
                // (line 171) and point its backlink at the prospective parent.
                let new_ref = unsafe { new.deref() };
                new_ref.child[1].store(link.with_tag(THREAD), INIT);
                new_ref.backlink.store(curr.with_tag(0), INIT);
                dst_point!();
                if self.cas_link(&curr_ref.child[loc.dir], link.with_tag(THREAD), new, guard) {
                    self.size.add(1);
                    return InsertOutcome::Inserted;
                }
                if record {
                    self.stats.record_restart();
                }
            }

            // Injection failed (or the observed link was already tagged).
            // Help whichever removal obstructed us, then restart.
            let observed = curr_ref.child[loc.dir].load(LOAD, guard);
            if same_node(observed, link) {
                if is_mark(observed) || is_flag(observed) {
                    if record {
                        self.stats.record_help();
                    }
                    if is_mark(observed) {
                        self.help_node(curr, guard);
                    } else if is_thread(observed) {
                        // A flagged threaded link: its target is under removal.
                        let victim = observed.with_tag(0);
                        let _ = self.clean_flag_threaded(curr, loc.dir, victim, false, guard);
                    } else {
                        self.help_node(observed.with_tag(0), guard);
                    }
                }
                // Restart in the vicinity of the failure (lines 178, 182-183),
                // or from the root in the ablation mode.
                if self.restart_from_root() {
                    prev = self.root1();
                    curr = self.root0();
                } else {
                    let back = unsafe { curr.deref() }.backlink.load(LOAD, guard).with_tag(0);
                    prev = back;
                    curr = back;
                }
            }
            // If the link's target changed (another insert landed first) we
            // simply re-locate from the current position.
        }
    }

    /// Inserts the entry `key -> value` if `key` is absent; returns `true` on
    /// success, `false` (dropping `value`) if the key was already present.
    ///
    /// This is the map-flavoured `Add`; the stored value of a present key is
    /// **not** touched — use [`upsert`](Self::upsert) to replace it.
    ///
    /// # Examples
    ///
    /// ```
    /// use lfbst::LfBst;
    /// let map: LfBst<u64, u64> = LfBst::new();
    /// assert!(map.insert_entry(1, 10));
    /// assert!(!map.insert_entry(1, 11));
    /// assert_eq!(map.get(&1), Some(10));
    /// ```
    pub fn insert_entry(&self, key: K, value: V) -> bool {
        self.insert_entry_with(key, value, &R::pin())
    }

    /// [`insert_entry`](Self::insert_entry) under a caller-held guard.
    pub(crate) fn insert_entry_with(&self, key: K, value: V, guard: &R::Guard) -> bool {
        matches!(self.insert_core(key, value, guard), InsertOutcome::Inserted)
    }

    /// Returns the value currently associated with `key`, if any.
    ///
    /// Reads are oblivious exactly like [`contains`](Self::contains): the
    /// traversal never writes to shared memory and never restarts (in the
    /// default [`HelpPolicy::ReadOptimized`] mode), and the value is read from
    /// the node's cell under the epoch guard, so it is safe against concurrent
    /// [`upsert`](Self::upsert) replacements and removals.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, &R::pin())
    }

    /// [`get`](Self::get) under a caller-held guard.
    pub(crate) fn get_with(&self, key: &K, guard: &R::Guard) -> Option<V>
    where
        V: Clone,
    {
        let loc =
            self.locate_from::<false>(self.root1(), self.root0(), key, self.eager_help(), guard);
        if loc.dir != 2 {
            return None;
        }
        let node_ref = unsafe { loc.curr.deref() };
        Some(node_ref.value.read_with(guard, V::clone).expect("keyed node has a value"))
    }

    /// Inserts or replaces the entry `key -> value`; returns the previous
    /// value if the key was present, `None` if a fresh entry was inserted.
    ///
    /// A present key is updated **in place**: the value cell's word (the
    /// value's bits for a word-sized scalar, else a box pointer) is swapped
    /// atomically, without re-running the insert protocol, so an
    /// upsert-heavy workload pays one traversal plus one swap per operation
    /// (see `DESIGN.md`, "Values on an internal BST", for the linearization
    /// argument and the remove-race caveat).
    pub fn upsert(&self, key: K, value: V) -> Option<V>
    where
        V: Clone,
    {
        self.upsert_with(key, value, &R::pin())
    }

    /// [`upsert`](Self::upsert) under a caller-held guard.
    pub(crate) fn upsert_with(&self, key: K, value: V, guard: &R::Guard) -> Option<V>
    where
        V: Clone,
    {
        let mut key = key;
        let mut value = value;
        let mut spin = SpinBound::new("upsert");
        loop {
            spin.tick();
            let loc = self.locate_from::<false>(
                self.root1(),
                self.root0(),
                &key,
                self.eager_help(),
                guard,
            );
            if loc.dir == 2 {
                let node_ref = unsafe { loc.curr.deref() };
                let right = node_ref.child[1].load(LOAD, guard);
                if is_mark(right) {
                    // The node is logically removed: an update must not
                    // resurrect it.  Drive the removal to completion, then
                    // retry — the next locate will miss the key and take the
                    // insert path.
                    self.note_help();
                    self.clean_mark_right(loc.curr, guard);
                    continue;
                }
                // Linearization point of the update: the word swap inside
                // the cell (a flag on the right link does not block it — a
                // flagged node is still logically present).
                return Some(node_ref.value.replace(value, guard));
            }
            match self.insert_core(key, value, guard) {
                InsertOutcome::Inserted => return None,
                InsertOutcome::Present { existing, key: k, value: v } => {
                    // Lost the injection race to a concurrent insert of the
                    // same key: update the winner in place if it is still
                    // live, otherwise help its removal and retry.
                    let node_ref = unsafe { existing.deref() };
                    let right = node_ref.child[1].load(LOAD, guard);
                    if !is_mark(right) {
                        return Some(node_ref.value.replace(v, guard));
                    }
                    self.note_help();
                    self.clean_mark_right(existing, guard);
                    key = k;
                    value = v;
                }
            }
        }
    }

    /// Removes `key`, returning the evicted value if the key was present.
    ///
    /// The returned value is the one observed in the node's cell once this
    /// call's removal has been driven to completion.
    pub fn remove_entry(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_entry_with(key, &R::pin())
    }

    /// [`remove_entry`](Self::remove_entry) under a caller-held guard.
    pub(crate) fn remove_entry_with(&self, key: &K, guard: &R::Guard) -> Option<V>
    where
        V: Clone,
    {
        let victim = self.remove_node_with(key, guard)?;
        // The victim was located under `guard`, so the node (and any value box
        // its cell points at) outlives this read even though it has already
        // been retired to the epoch collector.
        let node_ref = unsafe { victim.deref() };
        Some(node_ref.value.read_with(guard, V::clone).expect("keyed node has a value"))
    }

    /// The rightmost interior node, reached through unthreaded right links.
    fn rightmost<'g>(&self, guard: &'g R::Guard) -> Option<&'g Node<K, V>> {
        let top = unsafe { self.root0().deref() }.child[1].load(LOAD, guard);
        if is_thread(top) {
            return None;
        }
        let mut curr = top.with_tag(0);
        let mut spin = SpinBound::new("rightmost");
        loop {
            spin.tick();
            let right = unsafe { curr.deref() }.child[1].load(LOAD, guard);
            if is_thread(right) {
                return Some(unsafe { curr.deref() });
            }
            curr = right.with_tag(0);
        }
    }

    /// Follows the threaded representation to the in-order successor of `node`
    /// (the per-step hop of the streaming cursors in [`crate::cursor`]).
    pub(crate) fn in_order_successor<'g>(
        &self,
        node: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> Shared<'g, Node<K, V>> {
        let n = unsafe { node.deref() };
        let right = n.child[1].load(LOAD, guard);
        if is_thread(right) {
            return right.with_tag(0);
        }
        // Leftmost node of the right subtree.
        let mut curr = right.with_tag(0);
        let mut spin = SpinBound::new("in_order_successor");
        loop {
            spin.tick();
            let left = unsafe { curr.deref() }.child[0].load(LOAD, guard);
            if is_thread(left) {
                return curr;
            }
            curr = left.with_tag(0);
        }
    }

    /// Height of the tree (longest root-to-node path over unthreaded links).
    ///
    /// Intended for diagnostics and the sequential experiments; quiescent use only.
    pub fn height(&self) -> usize {
        let guard = &R::pin();
        // Every real node hangs off the right link of the `-inf` dummy (all real
        // keys compare greater than `-inf`).
        let top = unsafe { self.root0().deref() }.child[1].load(LOAD, guard);
        if is_thread(top) {
            return 0;
        }
        let mut max = 0usize;
        let mut stack = vec![(top.with_tag(0), 1usize)];
        while let Some((node, depth)) = stack.pop() {
            max = max.max(depth);
            let n = unsafe { node.deref() };
            for dir in 0..2 {
                let c = n.child[dir].load(LOAD, guard);
                if !is_thread(c) && !c.is_null() {
                    stack.push((c.with_tag(0), depth + 1));
                }
            }
        }
        max
    }

    /// Size in bytes of one tree node for this key and value type.
    ///
    /// The paper notes the design uses five memory words per node (key, two
    /// child links, backlink, prelink); the map face adds exactly one word for
    /// the value-cell pointer (zero for the set alias).  This reports the
    /// concrete Rust layout, used by the memory-footprint test
    /// (`tests/tests/footprint.rs`).
    pub fn node_size_bytes() -> usize {
        std::mem::size_of::<Node<K, V>>()
    }

    /// Decrements the size counter; called by the owning `remove`.
    pub(crate) fn note_removal(&self) {
        self.size.add(-1);
    }

    /// Increments helpers counter (used by remove.rs / locate.rs).
    pub(crate) fn note_help(&self) {
        if self.record_stats() {
            self.stats.record_help();
        }
    }

    /// Counts one protocol CAS on a child link (see `OpStats` for which CASes
    /// count).
    pub(crate) fn note_cas(&self, ok: bool) {
        if self.record_stats() {
            self.stats.record_cas(ok);
        }
    }

    /// One protocol CAS on a child link — insert's injection, or a removal's
    /// flag, mark, unflag or swing — counted through [`note_cas`](Self::note_cas).
    pub(crate) fn cas_link<'g>(
        &self,
        link: &Atomic<Node<K, V>>,
        current: Shared<'g, Node<K, V>>,
        new: Shared<'g, Node<K, V>>,
        guard: &'g R::Guard,
    ) -> bool {
        let ok = link.compare_exchange(current, new, CAS, CAS_ERR, guard).is_ok();
        self.note_cas(ok);
        ok
    }
}

/// The set-flavoured entry points, available on the `LfBst<K>` alias
/// (`V = ()`): a key can be inserted without supplying a value.
impl<K: Ord, R: Reclaimer> LfBst<K, (), R> {
    /// Inserts `key`; returns `true` if it was not already present.
    ///
    /// This is the paper's `Add` (listing lines 161–183): locate the threaded
    /// link whose key interval contains `key`, then publish the new node with a
    /// single CAS on that link.  On failure the operation helps any obstructing
    /// removal and retries from the vicinity of the failure.
    pub fn insert(&self, key: K) -> bool {
        self.insert_with(key, &R::pin())
    }

    /// [`insert`](Self::insert) under a caller-held guard.
    pub(crate) fn insert_with(&self, key: K, guard: &R::Guard) -> bool {
        matches!(self.insert_core(key, (), guard), InsertOutcome::Inserted)
    }
}

impl<K, V: MapValue, R: Reclaimer> Drop for LfBst<K, V, R> {
    fn drop(&mut self) {
        // Exclusive access: free every node reachable through unthreaded child
        // links (each live node has exactly one unthreaded incoming link, so the
        // walk visits each node once), then the two dummy roots.  Nodes already
        // retired to the epoch collector are unreachable here and are freed by
        // crossbeam instead.
        let guard = unsafe { R::unprotected() };
        let mut stack: Vec<*mut Node<K, V>> = Vec::new();
        unsafe {
            // Every real node is reachable from the right link of the `-inf`
            // dummy through unthreaded links only.
            let top = (*self.roots[0]).child[1].load(LOAD, guard);
            if !is_thread(top) && !top.is_null() {
                stack.push(top.with_tag(0).as_raw() as *mut Node<K, V>);
            }
            while let Some(p) = stack.pop() {
                for dir in 0..2 {
                    let c = (*p).child[dir].load(LOAD, guard);
                    if !is_thread(c) && !c.is_null() {
                        stack.push(c.with_tag(0).as_raw() as *mut Node<K, V>);
                    }
                }
                drop(epoch::dealloc_raw(p));
            }
            drop(epoch::dealloc_raw(self.roots[0]));
            drop(epoch::dealloc_raw(self.roots[1]));
        }
    }
}

impl<K, V, R> ConcurrentMap<K, V> for LfBst<K, V, R>
where
    K: Ord + Send + Sync,
    V: MapValue + Clone,
    R: Reclaimer,
{
    fn insert(&self, key: K, value: V) -> bool {
        LfBst::insert_entry(self, key, value)
    }

    fn get(&self, key: &K) -> Option<V> {
        LfBst::get(self, key)
    }

    fn upsert(&self, key: K, value: V) -> Option<V> {
        LfBst::upsert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        LfBst::remove_entry(self, key)
    }

    fn contains_key(&self, key: &K) -> bool {
        LfBst::contains(self, key)
    }

    fn len(&self) -> usize {
        LfBst::len(self)
    }

    fn name(&self) -> &'static str {
        "lfbst"
    }

    fn stats(&self) -> StatsSnapshot {
        LfBst::stats(self)
    }
}

impl<K, V, R> OrderedMap<K, V> for LfBst<K, V, R>
where
    K: Ord + Clone + Send + Sync,
    V: MapValue + Clone,
    R: Reclaimer,
{
    /// Collects [`range_iter`](LfBst::range_iter): each value is read from
    /// its node's cell when the scan visits it.
    ///
    /// ```
    /// use lfbst::{LfBst, OrderedMap};
    /// use std::ops::Bound::Included;
    ///
    /// let map: LfBst<u64, u64> = LfBst::new();
    /// for k in [10u64, 20, 30] {
    ///     map.insert_entry(k, k * 10);
    /// }
    /// assert_eq!(map.entries_between(Included(&15), Included(&30)), vec![(20, 200), (30, 300)]);
    /// ```
    fn entries_between(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        self.range_iter((lo.cloned(), hi.cloned())).collect()
    }

    fn entries_between_limited(
        &self,
        lo: std::ops::Bound<&K>,
        hi: std::ops::Bound<&K>,
        limit: usize,
    ) -> Vec<(K, V)> {
        let guard = &R::pin();
        let mut cursor = self.range_cursor((lo.cloned(), hi.cloned()), guard);
        let mut out = Vec::new();
        while out.len() < limit {
            match cursor.next() {
                Some(entry) => out.push((entry.key().clone(), entry.value())),
                None => break,
            }
        }
        out
    }

    fn scan_entries<'a>(
        &'a self,
        lo: std::ops::Bound<&K>,
        hi: std::ops::Bound<&K>,
    ) -> cset::EntryCursor<'a, K, V>
    where
        K: 'a,
        V: 'a,
    {
        Box::new(self.range_iter((lo.cloned(), hi.cloned())))
    }

    /// One cursor step from the `-inf` end.
    ///
    /// ```
    /// use lfbst::{LfBst, OrderedSet};
    ///
    /// let set = LfBst::new();
    /// assert_eq!(set.first(), None);
    /// set.insert(7u64);
    /// set.insert(3);
    /// assert_eq!(set.first(), Some(3));
    /// ```
    fn first_entry(&self) -> Option<(K, V)> {
        let guard = &R::pin();
        self.range_cursor(.., guard).next().map(|e| (e.key().clone(), e.value()))
    }

    /// One walk down the rightmost path.
    ///
    /// ```
    /// use lfbst::{LfBst, OrderedMap, OrderedSet};
    ///
    /// let set = LfBst::new();
    /// set.insert(7u64);
    /// set.insert(11);
    /// assert_eq!(set.last(), Some(11));
    ///
    /// let map: LfBst<u64, u64> = LfBst::new();
    /// assert_eq!(map.last_entry(), None);
    /// map.insert_entry(7, 70);
    /// map.insert_entry(11, 110);
    /// assert_eq!(map.last_entry(), Some((11, 110)));
    /// ```
    fn last_entry(&self) -> Option<(K, V)> {
        let guard = &R::pin();
        self.rightmost(guard).map(|node| {
            let k = node.key.as_key().cloned().expect("rightmost interior node carries a real key");
            let v = node.value.read_with(guard, V::clone).expect("keyed node has a value");
            (k, v)
        })
    }

    /// One `Locate` descent plus one successor-thread hop.
    ///
    /// ```
    /// use lfbst::{LfBst, OrderedSet};
    ///
    /// let set = LfBst::new();
    /// for k in [10u64, 20, 30] {
    ///     set.insert(k);
    /// }
    /// assert_eq!(set.next_after(&10), Some(20));
    /// assert_eq!(set.next_after(&15), Some(20));
    /// assert_eq!(set.next_after(&30), None);
    /// ```
    fn next_entry_after(&self, key: &K) -> Option<(K, V)> {
        let guard = &R::pin();
        let mut cursor =
            self.range_cursor((std::ops::Bound::Excluded(key), std::ops::Bound::Unbounded), guard);
        cursor.next().map(|e| (e.key().clone(), e.value()))
    }

    fn remove_range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> usize {
        self.bulk_sweep(lo.cloned(), hi, None)
    }

    fn retain_range(
        &self,
        lo: std::ops::Bound<&K>,
        hi: std::ops::Bound<&K>,
        keep: &(dyn Fn(&K, &V) -> bool + Sync),
    ) -> usize {
        self.bulk_sweep(lo.cloned(), hi, Some(keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_properties() {
        let t: LfBst<u64> = LfBst::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(!t.contains(&1));
        assert!(!t.remove(&1));
        assert_eq!(t.range_iter(..).next(), None);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn single_element_lifecycle() {
        let t = LfBst::new();
        assert!(t.insert(42u64));
        assert!(t.contains(&42));
        assert!(!t.insert(42));
        assert_eq!(t.len(), 1);
        assert_eq!(t.range_iter(..).keys().collect::<Vec<_>>(), vec![42]);
        assert!(t.remove(&42));
        assert!(!t.contains(&42));
        assert!(!t.remove(&42));
        assert!(t.is_empty());
    }

    #[test]
    fn sequential_inserts_are_sorted() {
        let t = LfBst::new();
        let keys = [5u64, 3, 8, 1, 4, 7, 9, 2, 6, 0];
        for &k in &keys {
            assert!(t.insert(k));
        }
        assert_eq!(t.len(), keys.len());
        assert_eq!(t.range_iter(..).keys().collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        for &k in &keys {
            assert!(t.contains(&k));
        }
        assert!(!t.contains(&100));
    }

    #[test]
    fn debug_format_is_nonempty() {
        let t: LfBst<u32> = LfBst::new();
        let s = format!("{t:?}");
        assert!(s.contains("LfBst"));
    }

    #[test]
    fn works_with_non_copy_keys() {
        let t: LfBst<String> = LfBst::new();
        assert!(t.insert("banana".to_string()));
        assert!(t.insert("apple".to_string()));
        assert!(t.insert("cherry".to_string()));
        assert!(t.contains(&"apple".to_string()));
        assert_eq!(
            t.range_iter(..).keys().collect::<Vec<_>>(),
            vec!["apple".to_string(), "banana".to_string(), "cherry".to_string()]
        );
        assert!(t.remove(&"banana".to_string()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sentinel_fast_path_semantics() {
        // Pins the contract `NegInf < k < PosInf` for the pointer-identified
        // sentinel comparison that replaces `KeyBound::cmp_key` on hot paths.
        let t = LfBst::new();
        t.insert(10u64);
        let guard = &Ebr::pin();
        assert_eq!(t.cmp_node_key(t.root0(), &0), CmpOrdering::Less);
        assert_eq!(t.cmp_node_key(t.root0(), &u64::MAX), CmpOrdering::Less);
        assert_eq!(t.cmp_node_key(t.root1(), &0), CmpOrdering::Greater);
        assert_eq!(t.cmp_node_key(t.root1(), &u64::MAX), CmpOrdering::Greater);
        // Interior nodes compare through `K::cmp` directly.
        let loc = t.locate_from::<false>(t.root1(), t.root0(), &10, false, guard);
        assert_eq!(loc.dir, 2);
        assert_eq!(t.cmp_node_key(loc.curr, &9), CmpOrdering::Greater);
        assert_eq!(t.cmp_node_key(loc.curr, &10), CmpOrdering::Equal);
        assert_eq!(t.cmp_node_key(loc.curr, &11), CmpOrdering::Less);
        // Tag bits never leak into the comparison.
        assert_eq!(t.cmp_node_key(loc.curr.with_tag(0b111), &10), CmpOrdering::Equal);
        assert_eq!(t.cmp_node_key(t.root1().with_tag(THREAD), &10), CmpOrdering::Greater);
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LfBst<u64>>();
        assert_send_sync::<LfBst<String>>();
        assert_send_sync::<LfBst<u64, u64>>();
        assert_send_sync::<LfBst<u64, String>>();
    }

    #[test]
    fn map_single_entry_lifecycle() {
        let map: LfBst<u64, String> = LfBst::new();
        assert_eq!(map.get(&42), None);
        assert!(map.insert_entry(42, "answer".into()));
        assert!(!map.insert_entry(42, "not stored".into()));
        assert_eq!(map.get(&42).as_deref(), Some("answer"), "insert must not overwrite");
        assert!(map.contains(&42));
        assert_eq!(map.len(), 1);
        assert_eq!(map.remove_entry(&42).as_deref(), Some("answer"));
        assert_eq!(map.remove_entry(&42), None);
        assert!(map.is_empty());
    }

    #[test]
    fn upsert_inserts_then_replaces_in_place() {
        let map: LfBst<u64, u64> = LfBst::new();
        assert_eq!(map.upsert(7, 70), None);
        assert_eq!(map.len(), 1);
        assert_eq!(map.upsert(7, 71), Some(70));
        assert_eq!(map.upsert(7, 72), Some(71));
        assert_eq!(map.len(), 1, "in-place update must not change membership");
        assert_eq!(map.get(&7), Some(72));
        assert_eq!(map.remove_entry(&7), Some(72));
    }

    #[test]
    fn map_scans_carry_values() {
        let map: LfBst<u64, u64> = LfBst::new();
        for k in [5u64, 1, 9, 3, 7] {
            map.insert_entry(k, k * 100);
        }
        assert_eq!(
            map.range_iter(..).collect::<Vec<_>>(),
            vec![(1, 100), (3, 300), (5, 500), (7, 700), (9, 900)]
        );
        assert_eq!(map.range_iter(3..=7).collect::<Vec<_>>(), vec![(3, 300), (5, 500), (7, 700)]);
        assert_eq!(map.range_iter(..3).collect::<Vec<_>>(), vec![(1, 100)]);
        assert_eq!(map.range_iter(8..).collect::<Vec<_>>(), vec![(9, 900)]);
        // The key-only face of the same tree agrees.
        assert_eq!(map.range_iter(3..=7).keys().collect::<Vec<_>>(), vec![3, 5, 7]);
        assert_eq!(map.range_iter(..).keys().collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        // So do the trait's end and successor queries.
        assert_eq!(map.first_entry(), Some((1, 100)));
        assert_eq!(map.last_entry(), Some((9, 900)));
        assert_eq!(map.next_entry_after(&5), Some((7, 700)));
        assert_eq!(map.next_entry_after(&9), None);
    }

    #[test]
    fn map_tree_validates_and_set_alias_coexists() {
        // The same protocol drives both faces: a map tree passes the full
        // structural validation, and `LfBst<K>` remains exactly `LfBst<K, ()>`.
        let map: LfBst<u64, u64> = LfBst::new();
        for k in 0..256u64 {
            map.insert_entry(k, k);
        }
        for k in (0..256u64).step_by(3) {
            assert_eq!(map.remove_entry(&k), Some(k));
        }
        crate::validate::validate(&map).expect("map tree must validate");
        let alias: LfBst<u64, ()> = LfBst::new();
        assert!(alias.insert(1)); // the set-only entry point on the explicit alias
        assert_eq!(alias.get(&1), Some(()));
    }

    #[test]
    fn map_remove_returns_latest_value() {
        let map: LfBst<u64, String> = LfBst::new();
        map.insert_entry(1, "a".into());
        map.upsert(1, "b".into());
        assert_eq!(map.remove_entry(&1).as_deref(), Some("b"));
    }

    #[test]
    fn concurrent_map_mixed_load_accounting() {
        use std::sync::Arc;
        // Values encode the writing thread; membership accounting mirrors the
        // set-level conformance battery.
        let map: Arc<LfBst<u64, u64>> = Arc::new(LfBst::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let k = (t * 31 + i) % 512;
                        match i % 4 {
                            0 => {
                                map.insert_entry(k, t * 1_000_000 + i);
                            }
                            1 => {
                                map.upsert(k, t * 1_000_000 + i);
                            }
                            2 => {
                                if let Some(v) = map.get(&k) {
                                    assert!(
                                        v % 1_000_000 < 5_000,
                                        "torn or foreign value {v} for key {k}"
                                    );
                                }
                            }
                            _ => {
                                map.remove_entry(&k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        crate::validate::validate(&*map).expect("map tree must validate after churn");
        for (k, v) in map.range_iter(..) {
            assert!(k < 512);
            assert!(v % 1_000_000 < 5_000);
        }
    }
}
