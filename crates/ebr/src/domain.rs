//! The reclamation skeleton both backends share.
//!
//! A backend is a [`Scheme`]: it says what a pinned thread publishes, how a
//! retirement is stamped, and when a stamped node may be freed.  Everything
//! else is written once here, generic over the scheme: the health counters
//! behind [`ReclamationStats`], the participant (registration, re-entrant
//! pin depth, the pin-cadence collect, unpin and thread-exit withdrawal),
//! the [`Guard`] with its retire path, batch window and
//! [`crate::GarbageBound`] settle, and the [`Reclaimer`] impl.  This is the
//! record-manager split of Brown's thesis: one reclaimer interface over
//! shared bookkeeping, each scheme supplying only its protection rule.
//!
//! Rust has no generic statics, so each scheme owns one `static` [`Domain`]
//! (its clock, counters, registry and bags), one `thread_local!` [`Local`]
//! and one unprotected guard, and hands them to the skeleton through
//! [`Scheme`].
//!
//! The registry and the bags are only ever taken with `try_lock` on the pin,
//! retire and collect paths: a contended attempt skips rather than blocking.
//! Reclamation is amortized, not real-time — the same contract as crossbeam.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::bags::{self, Bag, BagList, Deferred, OwnBag};
use crate::{block, bound, Ebr, ReclaimGuard, Reclaimer, ReclamationStats, Shared};

/// What a reclamation scheme supplies to the skeleton.
///
/// `pub` only inside this private module, like every type its signatures
/// name: the public `Guard<S: Scheme>` makes them reachable in the compiler's
/// eyes, but code outside the crate can neither name nor implement them.
pub trait Scheme: Copy + Default + Send + Sync + 'static {
    /// Short backend name ([`Reclaimer::NAME`]).
    const NAME: &'static str;

    /// Pins between a thread's cadence collects.  Each one collects the
    /// thread's own bag; every fourth also sweeps other bags, so the orphans
    /// of exited threads drain on the same cadence.
    const PINS_PER_COLLECT: u64;

    /// Queued retirements on one thread that trigger an eager local collect.
    const BAG_HIGH_WATER: usize;

    /// Whether the every-fourth cadence sweep covers live threads' bags, or
    /// only the orphans of exited threads.
    const CADENCE_SWEEPS_LIVE_BAGS: bool;

    /// The global clock (epoch or era).
    type Clock: Sync + 'static;

    /// What a thread publishes while pinned.
    type Slot: Send + Sync + 'static;

    /// Thread-private state kept beside the slot.
    type Cache: Default;

    /// One thread's retired nodes and their collect predicate.
    type Bag: Bag;

    /// The scheme's one domain.
    fn domain() -> &'static Domain<Self>;

    /// Runs `f` on the calling thread's participant.
    fn with_local<R>(f: impl FnOnce(&Local<Self>) -> R) -> R;

    /// The scheme's one unprotected guard.
    fn unprotected_guard() -> &'static Guard<Self>;

    /// A slot that publishes "not pinned".
    fn new_slot() -> Self::Slot;

    /// Publishes the outermost pin.  A collector that misses it must have
    /// scanned before the publication fence, when the thread held no
    /// pointers.
    fn publish(slot: &Self::Slot, cache: &Self::Cache);

    /// Withdraws the outermost pin.
    fn clear(slot: &Self::Slot);

    /// Stamps one retirement.
    ///
    /// # Safety
    ///
    /// `raw` must point into a live block from [`block::alloc_block`].
    unsafe fn stamp<T>(raw: *mut T, deferred: Deferred) -> <Self::Bag as Bag>::Item;

    /// Runs before every collect and returns what the bags' predicate
    /// compares stamps against.
    fn advance() -> <Self::Bag as Bag>::Now;

    /// The garbage ladder's extra nudge before each of its global sweeps.
    fn escalate() {}

    /// [`ReclaimGuard::protect_load`] for this scheme's guards.
    #[inline]
    fn protect_load<F: FnMut() -> usize>(_guard: &Guard<Self>, mut load: F) -> usize {
        load()
    }

    /// [`ReclaimGuard::try_protect_load`] for this scheme's guards.
    #[inline]
    fn try_protect_load<F: FnOnce() -> usize>(_guard: &Guard<Self>, load: F) -> Option<usize> {
        Some(load())
    }

    /// [`ReclaimGuard::protect_current_era`] for this scheme's guards.
    #[inline]
    fn protect_current_era(_guard: &Guard<Self>) {}
}

/// An atomic that shares its 128-byte block (two cache lines, the unit of
/// adjacent-line prefetch) with nothing else.
#[repr(align(128))]
pub struct OwnLine<A>(pub A);

impl<A> std::ops::Deref for OwnLine<A> {
    type Target = A;

    fn deref(&self) -> &A {
        &self.0
    }
}

/// One scheme's process-global state.
pub struct Domain<S: Scheme> {
    /// The scheme's clock.
    pub clock: S::Clock,
    /// The scheme's health counters.
    pub health: Health,
    /// All registered threads' slots.  Locked to register and withdraw a
    /// thread and (`try_lock`) to scan during collection.
    registry: Mutex<Vec<Arc<S::Slot>>>,
    /// Every thread's bag, live or orphaned.
    bags: BagList<S::Bag>,
}

impl<S: Scheme> Domain<S> {
    /// A fresh domain around `clock`.
    pub const fn new(clock: S::Clock) -> Self {
        Domain {
            clock,
            health: Health::new(),
            registry: Mutex::new(Vec::new()),
            bags: BagList::new(),
        }
    }

    /// The registered slots, or `None` while another thread holds the
    /// registry (a collector skips rather than waits).
    pub fn try_slots(&self) -> Option<MutexGuard<'_, Vec<Arc<S::Slot>>>> {
        self.registry.try_lock().ok()
    }
}

/// Reclamation health counters (see [`ReclamationStats`]).  Always on: the
/// pin fast path never touches them.  Retirement bumps `nodes_retired` (one
/// shared `fetch_add` per retired node) and the high-water mark only when it
/// rises; the rest sit on collection attempts and explicit repins.
pub struct Health {
    /// Successful clock advancements.
    pub epoch_advances: AtomicU64,
    /// Nodes pushed into a bag by `defer_destroy`.
    nodes_retired: AtomicU64,
    /// Retired nodes whose destructor has run.
    nodes_freed: AtomicU64,
    /// Bag collections that skipped the scan on a cached minimum stamp.
    pub min_stamp_skips: AtomicU64,
    /// Explicit repins that actually cycled the slot.
    repins: AtomicU64,
    /// Peak pending-garbage depth.
    bag_depth_hwm: AtomicU64,
    /// Retirements that found the depth over the garbage bound.
    bound_trips: AtomicU64,
    /// Yield-then-collect escalation rounds spent over the bound.
    bound_escalations: AtomicU64,
}

impl Health {
    const fn new() -> Health {
        Health {
            epoch_advances: AtomicU64::new(0),
            nodes_retired: AtomicU64::new(0),
            nodes_freed: AtomicU64::new(0),
            min_stamp_skips: AtomicU64::new(0),
            repins: AtomicU64::new(0),
            bag_depth_hwm: AtomicU64::new(0),
            bound_trips: AtomicU64::new(0),
            bound_escalations: AtomicU64::new(0),
        }
    }

    /// Current pending-garbage depth implied by the free-running counters.
    fn pending_depth(&self) -> usize {
        let retired = self.nodes_retired.load(Ordering::Relaxed);
        let freed = self.nodes_freed.load(Ordering::Relaxed);
        retired.saturating_sub(freed) as usize
    }

    fn stats(&self) -> ReclamationStats {
        ReclamationStats {
            epoch_advances: self.epoch_advances.load(Ordering::Relaxed),
            nodes_retired: self.nodes_retired.load(Ordering::Relaxed),
            nodes_freed: self.nodes_freed.load(Ordering::Relaxed),
            min_stamp_skips: self.min_stamp_skips.load(Ordering::Relaxed),
            repins: self.repins.load(Ordering::Relaxed),
            bag_depth_hwm: self.bag_depth_hwm.load(Ordering::Relaxed),
            bound_trips: self.bound_trips.load(Ordering::Relaxed),
            bound_escalations: self.bound_escalations.load(Ordering::Relaxed),
        }
    }
}

/// One registered thread of scheme `S`.
pub struct Local<S: Scheme> {
    /// The published slot, shared with the registry.
    pub slot: Arc<S::Slot>,
    /// Thread-private state beside the slot.
    pub cache: S::Cache,
    bag: OwnBag<S::Bag>,
    /// Re-entrant pin depth; the slot is written only at depth 0 -> 1.
    pin_depth: Cell<usize>,
    /// Total pins, used to sample collection attempts.
    pin_count: Cell<u64>,
}

impl<S: Scheme> Local<S> {
    /// Registers the calling thread (the scheme's `thread_local!` init).
    pub fn register() -> Self {
        let slot = Arc::new(S::new_slot());
        let domain = S::domain();
        domain.registry.lock().expect("reclamation registry poisoned").push(Arc::clone(&slot));
        Local {
            slot,
            cache: S::Cache::default(),
            bag: domain.bags.register(),
            pin_depth: Cell::new(0),
            pin_count: Cell::new(0),
        }
    }

    #[inline]
    fn pin(&self) {
        if self.pin_depth.get() == 0 {
            S::publish(&self.slot, &self.cache);
            let c = self.pin_count.get().wrapping_add(1);
            self.pin_count.set(c);
            if c % S::PINS_PER_COLLECT == 0 {
                self.collect_on_cadence(c);
            }
        }
        self.pin_depth.set(self.pin_depth.get() + 1);
    }

    /// The pin cadence's collection, kept out of line so the pin fast path
    /// stays small enough to inline its thread-local access.  Each scan of
    /// the registry is a direct tax on pin-heavy (read-mostly) workloads.
    #[cold]
    #[inline(never)]
    fn collect_on_cadence(&self, pin_count: u64) {
        let sweep = pin_count % (4 * S::PINS_PER_COLLECT) == 0;
        if sweep && S::CADENCE_SWEEPS_LIVE_BAGS {
            // Every bag, this thread's own included.
            collect_global::<S>();
            return;
        }
        let now = S::advance();
        self.bag.collect(|b| collect_bag::<S>(b, now));
        if sweep {
            // Live bags stay with their owners, so the allocator frees a node
            // on the thread that allocated it.
            S::domain().bags.sweep_orphans(|b| collect_bag::<S>(b, now));
        }
    }

    fn unpin(&self) {
        let d = self.pin_depth.get();
        debug_assert!(d > 0, "unpin without matching pin");
        self.pin_depth.set(d - 1);
        if d == 1 {
            S::clear(&self.slot);
        }
    }

    /// Local-scope collect: free what this thread's own bag holds that no
    /// reader can still reach.
    fn collect(&self) {
        let now = S::advance();
        self.bag.collect(|b| collect_bag::<S>(b, now));
    }

    /// A retirement's (or a closing batch window's) enforcement: collect at
    /// the bag's high-water mark, then, over the configured garbage ceiling,
    /// escalate on the writer's dime (the [`crate::GarbageBound`] ladder).
    fn settle(&self, queued: usize) {
        if queued >= S::BAG_HIGH_WATER {
            self.collect();
        }
        let health = &S::domain().health;
        if bound::over(health.pending_depth()) {
            bound::enforce(
                &|| health.pending_depth(),
                &|| self.collect(),
                &|| {
                    S::escalate();
                    collect_global::<S>();
                },
                &health.bound_trips,
                &health.bound_escalations,
            );
        }
    }
}

impl<S: Scheme> Drop for Local<S> {
    fn drop(&mut self) {
        // Thread exit: withdraw from the registry so a dead thread cannot
        // block reclamation forever.  The bag stays registered as an orphan —
        // sweeps drain and prune it.
        if let Ok(mut reg) = S::domain().registry.lock() {
            reg.retain(|s| !Arc::ptr_eq(s, &self.slot));
        }
    }
}

/// Runs the scheme's predicate over one bag and counts what it freed.
fn collect_bag<S: Scheme>(bag: &mut S::Bag, now: <S::Bag as Bag>::Now) {
    let freed = bag.collect(now);
    if freed > 0 {
        S::domain().health.nodes_freed.fetch_add(freed, Ordering::Relaxed);
    }
}

/// Global-scope collect: every bag, orphans included.
fn collect_global<S: Scheme>() {
    let now = S::advance();
    S::domain().bags.sweep(|b| collect_bag::<S>(b, now));
}

/// A pinned guard of scheme `S` (the epoch backend unless named).  Dropping
/// it unpins the thread.
pub struct Guard<S: Scheme = Ebr> {
    /// `false` only for the scheme's unprotected guard.
    pub(crate) protected: bool,
    /// Guards are tied to the pinning thread.
    _not_send: PhantomData<(S, *mut ())>,
}

/// A guard that can sit in a `static`: the scheme's unprotected guard.
pub struct Unprotected<S: Scheme>(pub Guard<S>);

// SAFETY: the unprotected guard holds no thread state: its retirements free
// immediately and its drop does nothing.
unsafe impl<S: Scheme> Sync for Unprotected<S> {}

impl<S: Scheme> Unprotected<S> {
    /// The unprotected guard.
    pub const GUARD: Unprotected<S> =
        Unprotected(Guard { protected: false, _not_send: PhantomData });
}

impl<S: Scheme> Guard<S> {
    /// Retires the node behind `ptr`: its block is dropped once no pinned
    /// thread can still hold a reference to it.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from a block-aware constructor in this crate
    /// ([`crate::Owned::new`], [`crate::Atomic::new`], [`crate::alloc_raw`]),
    /// must already be unreachable for threads that pin after this call, and
    /// must not be retired twice.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        let raw = ptr.as_raw() as *mut T;
        debug_assert!(!raw.is_null(), "defer_destroy of null");
        if !self.protected {
            drop(block::dealloc_block(raw));
            return;
        }
        // SAFETY: the caller's contract: `raw` came from a block-aware
        // constructor and is not yet freed (it is retired only now).
        let item = S::stamp(raw, Deferred::new(raw, S::NAME));
        S::with_local(|local| {
            let queued = local.bag.push(item);
            let health = &S::domain().health;
            health.nodes_retired.fetch_add(1, Ordering::Relaxed);
            bags::raise_hwm(&health.bag_depth_hwm, health.pending_depth() as u64);
            // Inside a batch-retire window, the window's close settles once
            // for the whole batch.
            if !bound::deferring() {
                local.settle(queued);
            }
        });
    }

    /// Forces a **global** collection attempt: every thread's bag plus the
    /// orphans, best effort, non-blocking.
    pub fn flush(&self) {
        collect_global::<S>();
    }

    /// Momentarily unpins and re-pins the guard's thread so that reclamation
    /// can make progress while a long-lived guard is held.
    ///
    /// Any `Shared` pointers loaded before the call must not be dereferenced
    /// afterwards: the unpin window allows their nodes to be reclaimed.  On a
    /// nested pin (another guard of the same thread is alive) this is a no-op,
    /// matching `crossbeam-epoch`.
    pub fn repin(&mut self) {
        if self.protected {
            S::domain().health.repins.fetch_add(1, Ordering::Relaxed);
            S::with_local(|local| {
                local.unpin();
                local.pin();
            });
        }
    }
}

impl<S: Scheme> ReclaimGuard for Guard<S> {
    unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        Guard::defer_destroy(self, ptr);
    }

    fn flush(&self) {
        Guard::flush(self);
    }

    fn repin(&mut self) {
        Guard::repin(self);
    }

    #[inline]
    fn protect_load<F: FnMut() -> usize>(&self, load: F) -> usize {
        S::protect_load(self, load)
    }

    #[inline]
    fn try_protect_load<F: FnOnce() -> usize>(&self, load: F) -> Option<usize> {
        S::try_protect_load(self, load)
    }

    #[inline]
    fn protect_current_era(&self) {
        S::protect_current_era(self);
    }

    fn retire_batch<T, F: FnOnce() -> T>(&self, f: F) -> T {
        let out = {
            let _window = bound::enter_batch();
            f()
        };
        // Settle once for the whole batch (skipped when a still-open outer
        // window will settle for us, and for the unprotected guard, whose
        // retirements free immediately and leave nothing pending).
        if self.protected && !bound::deferring() {
            S::with_local(|local| local.settle(local.bag.len()));
        }
        out
    }
}

impl<S: Scheme> fmt::Debug for Guard<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("scheme", &S::NAME)
            .field("protected", &self.protected)
            .finish()
    }
}

impl<S: Scheme> Drop for Guard<S> {
    fn drop(&mut self) {
        if self.protected {
            S::with_local(Local::unpin);
        }
    }
}

impl<S: Scheme> Reclaimer for S {
    type Guard = Guard<S>;

    const NAME: &'static str = <S as Scheme>::NAME;

    #[inline]
    fn pin() -> Guard<S> {
        S::with_local(Local::pin);
        Guard { protected: true, _not_send: PhantomData }
    }

    unsafe fn unprotected() -> &'static Guard<S> {
        S::unprotected_guard()
    }

    fn collect() {
        collect_global::<S>();
    }

    fn stats() -> ReclamationStats {
        S::domain().health.stats()
    }

    fn reset_bag_depth_hwm() {
        let health = &S::domain().health;
        health.bag_depth_hwm.store(health.pending_depth() as u64, Ordering::Relaxed);
    }
}
