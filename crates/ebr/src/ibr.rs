//! The interval-based backend (2GE-style IBR).
//!
//! Epoch reclamation's failure mode is global: one stalled reader freezes the
//! epoch and **every** retirement after that accumulates.  Interval-based
//! reclamation (He/Wen et al., PPoPP 2018) makes the damage proportional to
//! the reader instead:
//!
//! * A global **era** counter advances on a retirement cadence.
//! * Every allocation is stamped with its **birth era** (the block header,
//!   see [`crate::block`]); every retirement stamps a **retire era**.  A
//!   node's lifespan is the interval `[birth, retire]`.
//! * A pinned thread publishes a **reservation** `[lo, hi]`: `lo` is fixed at
//!   pin time, `hi` grows as the thread performs protected loads
//!   ([`crate::ReclaimGuard::protect_load`] re-reads the era after each load
//!   and republishes `hi` until the load is covered).
//! * A retired node is freed once its lifespan overlaps **no** active
//!   reservation: free iff for every `[lo, hi]`, not
//!   (`birth <= hi && retire >= lo`).
//!
//! A stalled reader's `hi` stops growing, so it only pins nodes born before
//! its last protected load — garbage born *after* the stall is freed on the
//! normal cadence.  That is the property experiment E17 measures against the
//! epoch backend.
//!
//! ## Structure discipline
//!
//! The interval argument covers pointers loaded from cells of nodes that are
//! still *attached* (reachable) at load time: such a target cannot have been
//! retired before the load, so every collector scanning after its retirement
//! sees the reader's raised `hi` covering it.  Pointers read out of already
//! detached nodes carry no such guarantee — the same restriction hazard-
//! pointer schemes place on Harris-style lists.  The in-tree structures fit:
//! operations re-locate from the root, mutations validate via CAS expected
//! values, and the long-lived cursors repin-and-reseek on a fixed cadence
//! (DESIGN.md §8 spells out the argument).
//!
//! ## Bags and orphans
//!
//! Retired nodes go into per-thread bags (see [`crate::bags`], shared with
//! the epoch backend), so any thread can run a *global* collect — the
//! [`crate::GarbageBound`] ladder depends on that to free garbage a stalled
//! or exited peer left behind.  A thread that exits leaves its bag in the
//! list as an orphan; global collects drain it and drop it once empty.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::bags::{self, Bag, BagList, Deferred, OwnBag};
use crate::{block, bound, ReclaimGuard, Reclaimer, ReclamationStats, Shared};

/// Reservation value meaning "this participant is not currently pinned".
const INACTIVE: u64 = u64::MAX;

/// Retirements between era advancements.  Smaller values give finer-grained
/// lifespans (less garbage pinned by a stalled reader) at the cost of more
/// era churn, and each era change costs every active reader one extra
/// republish-and-retry in its next protected load.
const RETIRES_PER_ERA: u64 = 64;

/// Pins between local collection attempts (per thread); every fourth attempt
/// widens to a global collect so orphaned bags drain on the same cadence.
const PINS_PER_COLLECT: u64 = 256;

/// Per-thread retired-node count that triggers an eager local collect.
const BAG_HIGH_WATER: usize = 256;

/// The global era.  Starts at 1 so a zero birth stamp is visibly impossible.
static ERA: AtomicU64 = AtomicU64::new(1);

/// Retirement ticks driving the era cadence.
static RETIRE_TICK: AtomicU64 = AtomicU64::new(0);

/// The current era (birth stamp for new allocations; see [`crate::block`]).
pub(crate) fn current_era() -> u64 {
    ERA.load(Ordering::Relaxed)
}

/// Reclamation health counters for this backend.  Same contract as the epoch
/// backend's: always on, free-running since process start.
mod health {
    use std::sync::atomic::AtomicU64;

    /// Successful era advancements (reported as `epoch_advances`).
    pub static ERA_ADVANCES: AtomicU64 = AtomicU64::new(0);
    /// Nodes pushed into a retire bag by `defer_destroy`.
    pub static NODES_RETIRED: AtomicU64 = AtomicU64::new(0);
    /// Retired nodes whose destructor has run.
    pub static NODES_FREED: AtomicU64 = AtomicU64::new(0);
    /// Explicit `IbrGuard::repin` calls that actually cycled the reservation.
    pub static REPINS: AtomicU64 = AtomicU64::new(0);
    /// Peak pending-garbage depth (see `ReclamationStats::bag_depth_hwm`).
    pub static BAG_DEPTH_HWM: AtomicU64 = AtomicU64::new(0);
    /// Retirements that found the garbage depth over the configured bound.
    pub static BOUND_TRIPS: AtomicU64 = AtomicU64::new(0);
    /// Yield-then-collect escalation rounds spent over the bound.
    pub static BOUND_ESCALATIONS: AtomicU64 = AtomicU64::new(0);
}

/// Current pending-garbage depth implied by the free-running counters.
fn pending_depth() -> usize {
    let retired = health::NODES_RETIRED.load(Ordering::Relaxed);
    let freed = health::NODES_FREED.load(Ordering::Relaxed);
    retired.saturating_sub(freed) as usize
}

/// Reads this backend's reclamation health counters.
pub fn ibr_reclamation_stats() -> ReclamationStats {
    ReclamationStats {
        epoch_advances: health::ERA_ADVANCES.load(Ordering::Relaxed),
        nodes_retired: health::NODES_RETIRED.load(Ordering::Relaxed),
        nodes_freed: health::NODES_FREED.load(Ordering::Relaxed),
        // Interval collection has no min-stamp fast path; the field stays 0
        // so dashboards can share one schema across backends.
        min_stamp_skips: 0,
        repins: health::REPINS.load(Ordering::Relaxed),
        bag_depth_hwm: health::BAG_DEPTH_HWM.load(Ordering::Relaxed),
        bound_trips: health::BOUND_TRIPS.load(Ordering::Relaxed),
        bound_escalations: health::BOUND_ESCALATIONS.load(Ordering::Relaxed),
    }
}

/// One registered thread's reservation.  `lo == INACTIVE` means unpinned;
/// while pinned, `lo` is fixed and `hi` grows monotonically.
struct IbrSlot {
    lo: AtomicU64,
    hi: AtomicU64,
}

/// All registered reservations.  Locked only to register/deregister a thread
/// and (try_lock) to snapshot during collection.
static REGISTRY: Mutex<Vec<Arc<IbrSlot>>> = Mutex::new(Vec::new());

/// A retired node: its lifespan and the type-erased block destructor.
struct Retired {
    birth: u64,
    retire: u64,
    deferred: Deferred,
}

impl Bag for Vec<Retired> {
    type Item = Retired;

    fn push(&mut self, item: Retired) {
        Vec::push(self, item);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// Every thread's bag, live or orphaned.
static BAGS: BagList<Vec<Retired>> = BagList::new();

/// Advances the era on the retirement cadence.
fn tick_era() {
    let t = RETIRE_TICK.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    if t % RETIRES_PER_ERA == 0 {
        ERA.fetch_add(1, Ordering::SeqCst);
        health::ERA_ADVANCES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Frees every entry of `items` whose lifespan overlaps no active
/// reservation (none if the registry was contended).
fn collect_bag(items: &mut Vec<Retired>) {
    if items.is_empty() {
        return;
    }
    // Order the reservation snapshot after the retirements that queued these
    // items (their SeqCst era loads), matching the readers' pin fences.
    fence(Ordering::SeqCst);
    let reservations: Vec<(u64, u64)> = {
        let Ok(registry) = REGISTRY.try_lock() else { return };
        registry
            .iter()
            .filter_map(|slot| {
                let lo = slot.lo.load(Ordering::SeqCst);
                if lo == INACTIVE {
                    None
                } else {
                    // `hi` can move under us (unpin publishes INACTIVE =
                    // u64::MAX, repin a fresh era): every readable value is a
                    // superset of some instantaneous reservation, i.e. only
                    // conservative.
                    Some((lo, slot.hi.load(Ordering::SeqCst)))
                }
            })
            .collect()
    };
    let mut freed = 0u64;
    let mut i = 0;
    while i < items.len() {
        let n = &items[i];
        if reservations.iter().any(|&(lo, hi)| n.birth <= hi && n.retire >= lo) {
            i += 1;
        } else {
            // SAFETY: the node's lifespan overlaps no active reservation, so
            // no reader can still hold it (module docs).
            unsafe { items.swap_remove(i).deferred.run() };
            freed += 1;
        }
    }
    if freed > 0 {
        health::NODES_FREED.fetch_add(freed, Ordering::Relaxed);
    }
}

/// Collects every registered bag and prunes empty orphans.  Non-blocking
/// throughout; a contended bag or registry is skipped, not waited on.
fn try_collect_global() {
    BAGS.sweep(collect_bag);
}

/// Global-scope collect used by the escalation ladder: nudge the era forward
/// so freshly retired garbage lands outside stalled reservations, then sweep
/// every bag.
fn escalate_collect() {
    ERA.fetch_add(1, Ordering::SeqCst);
    health::ERA_ADVANCES.fetch_add(1, Ordering::Relaxed);
    try_collect_global();
}

/// Per-thread participant state.
struct Local {
    slot: Arc<IbrSlot>,
    bag: OwnBag<Vec<Retired>>,
    /// Re-entrant pin depth; the reservation is written only at depth 0 -> 1.
    pin_depth: Cell<usize>,
    /// Total pins, used to sample collection attempts.
    pin_count: Cell<u64>,
    /// Cache of the published `hi`, so the protected-load fast path is one
    /// era load + compare with no store.
    hi_cache: Cell<u64>,
}

impl Local {
    fn register() -> Local {
        let slot = Arc::new(IbrSlot { lo: AtomicU64::new(INACTIVE), hi: AtomicU64::new(INACTIVE) });
        REGISTRY.lock().expect("ibr registry poisoned").push(Arc::clone(&slot));
        Local {
            slot,
            bag: BAGS.register(),
            pin_depth: Cell::new(0),
            pin_count: Cell::new(0),
            hi_cache: Cell::new(INACTIVE),
        }
    }

    fn pin(&self) {
        if self.pin_depth.get() == 0 {
            // Publish the reservation, then re-check the era (the same
            // publication fence dance as the epoch backend's pin): a
            // collector that misses this reservation must have scanned
            // before the fence, when this thread held no pointers.
            loop {
                let e = ERA.load(Ordering::SeqCst);
                self.slot.lo.store(e, Ordering::SeqCst);
                self.slot.hi.store(e, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if ERA.load(Ordering::SeqCst) == e {
                    self.hi_cache.set(e);
                    break;
                }
            }
            let c = self.pin_count.get().wrapping_add(1);
            self.pin_count.set(c);
            if c % PINS_PER_COLLECT == 0 {
                if c % (4 * PINS_PER_COLLECT) == 0 {
                    try_collect_global();
                } else {
                    self.bag.collect(collect_bag);
                }
            }
        }
        self.pin_depth.set(self.pin_depth.get() + 1);
    }

    fn unpin(&self) {
        let d = self.pin_depth.get();
        debug_assert!(d > 0, "unpin without matching pin");
        self.pin_depth.set(d - 1);
        if d == 1 {
            // `lo` is the collector's active gate; clear `hi` first so any
            // torn read is the conservative (INACTIVE = maximal) value.
            self.slot.hi.store(INACTIVE, Ordering::Release);
            self.slot.lo.store(INACTIVE, Ordering::Release);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: withdraw the reservation so a dead thread cannot pin
        // garbage forever.  The bag stays registered as an orphan — global
        // collects drain and prune it.
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.retain(|s| !Arc::ptr_eq(s, &self.slot));
        }
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// Pins the current thread under interval-based reclamation.
pub fn pin_ibr() -> IbrGuard {
    LOCAL.with(Local::pin);
    IbrGuard { protected: true, _not_send: PhantomData }
}

/// Returns a dummy IBR guard for contexts with exclusive access.  Deferred
/// destructions on this guard run immediately.
///
/// # Safety
///
/// The caller must guarantee that no other thread is accessing the data
/// structure concurrently.
pub unsafe fn unprotected_ibr() -> &'static IbrGuard {
    struct SyncGuard(IbrGuard);
    unsafe impl Sync for SyncGuard {}
    static UNPROTECTED: SyncGuard =
        SyncGuard(IbrGuard { protected: false, _not_send: PhantomData });
    &UNPROTECTED.0
}

/// A pinned-reservation guard.  Dropping it unpins the thread.
pub struct IbrGuard {
    protected: bool,
    /// Guards are tied to the pinning thread.
    _not_send: PhantomData<*mut ()>,
}

impl ReclaimGuard for IbrGuard {
    /// Retires the node behind `ptr` (same contract as the epoch backend's
    /// `defer_destroy`): freed once its lifespan overlaps no reservation.
    unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        let raw = ptr.as_raw() as *mut T;
        debug_assert!(!raw.is_null(), "defer_destroy of null");
        if !self.protected {
            drop(block::dealloc_block(raw));
            return;
        }
        let birth = block::birth_of(raw);
        let retire = ERA.load(Ordering::SeqCst);
        let deferred = Deferred::new(raw, "ibr");
        let len = LOCAL.with(|local| local.bag.push(Retired { birth, retire, deferred }));
        health::NODES_RETIRED.fetch_add(1, Ordering::Relaxed);
        bags::raise_hwm(&health::BAG_DEPTH_HWM, pending_depth() as u64);
        tick_era();
        if bound::deferring() {
            // Inside a batch-retire window: the window's close runs one
            // high-water collect and one bound ladder for the whole batch.
            return;
        }
        if len >= BAG_HIGH_WATER {
            LOCAL.with(|local| local.bag.collect(collect_bag));
        }
        if bound::over(pending_depth()) {
            LOCAL.with(|local| {
                bound::enforce(
                    &pending_depth,
                    &|| local.bag.collect(collect_bag),
                    &escalate_collect,
                    &health::BOUND_TRIPS,
                    &health::BOUND_ESCALATIONS,
                );
            });
        }
    }

    /// Forces a **global** collection attempt: every thread's bag plus the
    /// orphans, best effort, non-blocking.
    fn flush(&self) {
        try_collect_global();
    }

    /// Momentarily unpins and re-pins at the current era, collapsing the
    /// reservation to a fresh `[now, now]`.  Same pointer-invalidation
    /// contract as the epoch backend's repin.
    fn repin(&mut self) {
        if self.protected {
            health::REPINS.fetch_add(1, Ordering::Relaxed);
            LOCAL.with(|local| {
                local.unpin();
                local.pin();
            });
        }
    }

    fn protect_load<F: FnMut() -> usize>(&self, mut load: F) -> usize {
        if !self.protected {
            return load();
        }
        LOCAL.with(|local| {
            loop {
                let word = load();
                let era = ERA.load(Ordering::SeqCst);
                if era == local.hi_cache.get() {
                    // The era did not move across the load: the published
                    // reservation covers the load's era, so the word carries
                    // a dereference license.
                    return word;
                }
                local.slot.hi.store(era, Ordering::SeqCst);
                local.hi_cache.set(era);
                // Re-load under the extended reservation: the first read may
                // have caught a pointer born after the previously published
                // `hi` that a concurrent collect was entitled to free.
            }
        })
    }

    fn protect_current_era(&self) {
        if !self.protected {
            return;
        }
        LOCAL.with(|local| {
            let era = ERA.load(Ordering::SeqCst);
            if era != local.hi_cache.get() {
                local.slot.hi.store(era, Ordering::SeqCst);
                local.hi_cache.set(era);
            }
        });
    }

    fn retire_batch<T, F: FnOnce() -> T>(&self, f: F) -> T {
        let out = {
            let _window = bound::enter_batch();
            f()
        };
        // Settle once for the whole batch (skipped under a still-open outer
        // window, and for the unprotected guard whose retirements free
        // immediately).
        if self.protected && !bound::deferring() {
            LOCAL.with(|local| {
                if local.bag.len() >= BAG_HIGH_WATER {
                    local.bag.collect(collect_bag);
                }
                if bound::over(pending_depth()) {
                    bound::enforce(
                        &pending_depth,
                        &|| local.bag.collect(collect_bag),
                        &escalate_collect,
                        &health::BOUND_TRIPS,
                        &health::BOUND_ESCALATIONS,
                    );
                }
            });
        }
        out
    }
}

impl fmt::Debug for IbrGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IbrGuard").field("protected", &self.protected).finish()
    }
}

impl Drop for IbrGuard {
    fn drop(&mut self) {
        if self.protected {
            LOCAL.with(Local::unpin);
        }
    }
}

/// The interval-based backend as a [`Reclaimer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ibr;

impl Reclaimer for Ibr {
    type Guard = IbrGuard;

    const NAME: &'static str = "ibr";

    fn pin() -> IbrGuard {
        pin_ibr()
    }

    unsafe fn unprotected() -> &'static IbrGuard {
        unprotected_ibr()
    }

    fn collect() {
        try_collect_global();
    }

    fn stats() -> ReclamationStats {
        ibr_reclamation_stats()
    }

    fn reset_bag_depth_hwm() {
        health::BAG_DEPTH_HWM.store(pending_depth() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atomic, Owned};
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;

    /// One era-advancing churn round: retire filler under a short pin (a
    /// thread's own reservation covers its own retirements, so the pin must
    /// drop before anything it queued can free), then collect globally.
    fn churn_once() {
        {
            let guard = pin_ibr();
            // Retirements advance the era; otherwise nothing ever moves.
            for _ in 0..RETIRES_PER_ERA {
                let p = Owned::new(0u8).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
        }
        unsafe { unprotected_ibr() }.flush();
    }

    /// Churn until `done` holds (or a generous cap, so a failure still
    /// terminates): a single round is not guaranteed to free anything.
    fn churn_until(done: impl Fn() -> bool) {
        for _ in 0..200 {
            if done() {
                return;
            }
            churn_once();
            std::thread::yield_now();
        }
    }

    #[test]
    fn unprotected_defer_runs_immediately() {
        let _serial = crate::serial_test();
        struct NoteDrop(Arc<StdAtomicUsize>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(StdAtomicUsize::new(0));
        let guard = unsafe { unprotected_ibr() };
        let p = Owned::new(NoteDrop(Arc::clone(&drops))).into_shared(guard);
        unsafe { guard.defer_destroy(p) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deferred_destruction_eventually_runs() {
        let _serial = crate::serial_test();
        struct NoteDrop(Arc<StdAtomicUsize>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(StdAtomicUsize::new(0));
        {
            let guard = pin_ibr();
            let p = Owned::new(NoteDrop(Arc::clone(&drops))).into_shared(&guard);
            unsafe { guard.defer_destroy(p) };
            // Still pinned: our own reservation covers the retirement.
            unsafe { unprotected_ibr() }.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 0);
        }
        churn_until(|| drops.load(Ordering::SeqCst) == 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stalled_reader_does_not_block_younger_garbage() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        // A reader pins and stalls; a writer then allocates AND retires nodes
        // born after the reader's reservation.  Those must be freeable while
        // the reader is still stalled — the property EBR lacks.
        struct NoteDrop(Arc<StdAtomicUsize>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let a = Arc::new(Atomic::new(7u64));
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let guard = pin_ibr();
                let p = a.load(Ordering::SeqCst, &guard);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                // The node loaded under the reservation stays readable.
                assert_eq!(unsafe { *p.deref() }, 7);
            })
        };
        ready_rx.recv().unwrap();

        let drops = Arc::new(StdAtomicUsize::new(0));
        // Force the era past the reader's frozen `hi` so the garbage below
        // is born strictly after its reservation.
        churn_once();
        churn_once();
        {
            let guard = pin_ibr();
            for _ in 0..100 {
                let p = Owned::new(NoteDrop(Arc::clone(&drops))).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
        }
        // Collect while the reader still stalls: every NoteDrop was born
        // after the reader's `hi`, so its reservation does not cover them.
        churn_until(|| drops.load(Ordering::SeqCst) == 100);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            100,
            "garbage born after the stalled reader's reservation must be freed"
        );
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        let guard = pin_ibr();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    #[test]
    fn protected_node_survives_collection() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        // The dual: a node loaded under the reader's reservation must NOT be
        // freed, however far the era advances.
        let a = Arc::new(Atomic::new(41u64));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let guard = pin_ibr();
                let p = a.load(Ordering::SeqCst, &guard);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                assert_eq!(unsafe { *p.deref() }, 41);
            })
        };
        ready_rx.recv().unwrap();
        {
            let guard = pin_ibr();
            let old = a.load(Ordering::SeqCst, &guard);
            let new = Owned::new(42u64).into_shared(&guard);
            a.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst, &guard).unwrap();
            unsafe { guard.defer_destroy(old) };
        }
        for _ in 0..8 {
            churn_once();
        }
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        let guard = pin_ibr();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    #[test]
    fn ibr_stats_track_retire_free_cycle() {
        let _serial = crate::serial_test();
        let before = ibr_reclamation_stats();
        {
            let guard = pin_ibr();
            let p = Owned::new(123u64).into_shared(&guard);
            unsafe { guard.defer_destroy(p) };
        }
        churn_until(|| ibr_reclamation_stats().since(&before).nodes_freed >= 1);
        let mut guard = pin_ibr();
        guard.repin();
        drop(guard);
        let delta = ibr_reclamation_stats().since(&before);
        assert!(delta.nodes_retired >= 1, "retired: {delta:?}");
        assert!(delta.nodes_freed >= 1, "freed: {delta:?}");
        assert!(delta.epoch_advances >= 1, "era advances: {delta:?}");
        assert!(delta.repins >= 1, "repins: {delta:?}");
        assert!(delta.bag_depth_hwm >= 1, "hwm: {delta:?}");
        let now = ibr_reclamation_stats();
        assert!(now.nodes_freed <= now.nodes_retired);
    }

    #[test]
    #[cfg(any(feature = "retire-audit", debug_assertions))]
    fn double_retire_panics_under_audit() {
        let _serial = crate::serial_test();
        let guard = pin_ibr();
        let p = Owned::new(9u64).into_shared(&guard);
        unsafe { guard.defer_destroy(p) };
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            guard.defer_destroy(p)
        }));
        let msg = *second.expect_err("double retire must panic").downcast::<String>().unwrap();
        assert!(msg.contains("double retire"), "unexpected panic message: {msg}");
        // The first retirement stays queued and frees exactly once.
        drop(guard);
        churn_once();
    }

    #[test]
    fn concurrent_churn_is_safe() {
        let _serial = crate::serial_test();
        let a = Arc::new(Atomic::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let guard = pin_ibr();
                        let new = Owned::new(t * 1_000_000 + i).into_shared(&guard);
                        loop {
                            let old = a.load(Ordering::SeqCst, &guard);
                            match a.compare_exchange(
                                old,
                                new,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                                &guard,
                            ) {
                                Ok(_) => {
                                    unsafe { guard.defer_destroy(old) };
                                    break;
                                }
                                Err(_) => continue,
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Drain what the exited workers orphaned.
        unsafe { unprotected_ibr() }.flush();
        let guard = pin_ibr();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    #[test]
    fn garbage_bound_escalation_frees_under_pressure() {
        let _serial = crate::serial_test();
        // Install a small ceiling, retire well past it with no stalled
        // readers, and check the ladder both fired and recovered.
        let prev = crate::garbage_bound();
        crate::set_garbage_bound(crate::GarbageBound::nodes(64));
        let before = ibr_reclamation_stats();
        // Short pins: a thread's own reservation covers its own retirements,
        // so the ladder can only free garbage from already-dropped pins.
        for _ in 0..100 {
            let guard = pin_ibr();
            for _ in 0..10 {
                let p = Owned::new([0u64; 4]).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
            drop(guard);
        }
        crate::set_garbage_bound(prev);
        let delta = ibr_reclamation_stats().since(&before);
        assert!(delta.bound_trips >= 1, "ceiling never tripped: {delta:?}");
        assert!(delta.nodes_freed > 0, "escalation freed nothing: {delta:?}");
    }
}
