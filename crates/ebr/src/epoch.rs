//! The epoch-based backend (the crate's historical scheme and the default).
//!
//! The classic three-epoch scheme (Fraser 2004):
//!
//! * A global epoch counter advances one step at a time.
//! * Every thread *pins* the current epoch before touching shared nodes
//!   ([`pin`] returns a [`Guard`]; dropping the guard unpins).
//! * Retired nodes ([`Guard::defer_destroy`]) are stamped with the epoch at
//!   retirement and freed only once the global epoch has advanced **twice**
//!   past that stamp.  Advancing requires every pinned thread to have
//!   observed the current epoch, so two advancements form a grace period: no
//!   thread that could still hold a reference to the node remains pinned.
//!
//! A node retired at epoch `e` was unlinked from its structure before being
//! retired, therefore a thread that pins at epoch `e + 1` or later cannot
//! reach it, and threads pinned at `e` or earlier block both advancements.
//! Freeing at `e + 2` is safe.
//!
//! The known failure mode — one stalled reader freezes the global epoch and
//! garbage grows without bound — is what the [`crate::ibr`] backend exists to
//! remove; here it is only *bounded* by the [`crate::GarbageBound`]
//! escalation ladder (which cannot free anything while the epoch is frozen,
//! but caps the cost of trying and counts the trips for observability).
//!
//! Retired nodes go into per-thread bags (see [`crate::bags`]): a retirement
//! touches only its own thread's bag and never waits on a lock another thread
//! holds.  Each thread frees its own garbage on its pin cadence and at its
//! bag's high-water mark, and the cadence also drains the orphaned bags of
//! exited threads; a global collect sweeps every bag.  The participant
//! registry and the bags are only ever taken with `try_lock` on these paths:
//! a contended attempt skips rather than blocking.  Reclamation is amortized,
//! not real-time — the same contract as crossbeam.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::bags::{self, Bag, BagList, Deferred, OwnBag};
use crate::{block, bound, ReclaimGuard, Reclaimer, ReclamationStats, Shared};

/// Sentinel slot value meaning "this participant is not currently pinned".
const NOT_PINNED: usize = usize::MAX;

/// Pins between local collection attempts (per thread); every fourth
/// attempt also sweeps the orphaned bags of exited threads, so they drain on
/// the same cadence.  Live threads' bags are left to their owners, so the
/// allocator frees a node on the thread that allocated it.
///
/// Each attempt takes the registry lock (`try_lock`) and scans every slot, so
/// the cadence is a direct tax on pin-heavy (read-mostly) workloads.  256
/// keeps reclamation latency bounded by a few hundred pins while making the
/// common pin a pure store + fence; the bag high-water mark below still
/// triggers eager collection under write bursts.
const PINS_PER_COLLECT: u64 = 256;

/// Per-thread retired-node count that triggers an eager local collect.
const BAG_HIGH_WATER: usize = 1024;

/// The global epoch.  Monotonically increasing; advances only when every
/// pinned participant has observed the current value.
///
/// Every pin reads it twice, so it sits on its own pair of cache lines: a
/// retirement's counter bump (`health` below) must not invalidate it.
static GLOBAL_EPOCH: OwnLine = OwnLine(AtomicUsize::new(0));

/// An atomic that shares its 128-byte block (two cache lines, the unit of
/// adjacent-line prefetch) with no other static.
#[repr(align(128))]
struct OwnLine(AtomicUsize);

impl std::ops::Deref for OwnLine {
    type Target = AtomicUsize;

    fn deref(&self) -> &AtomicUsize {
        &self.0
    }
}

/// Reclamation health counters for this backend (see
/// [`ReclamationStats`]).  The counters are always on: the pin fast path
/// never touches them.  Retirement bumps `NODES_RETIRED` (one shared
/// `fetch_add` per retired node) and the high-water mark only when it rises;
/// the rest sit on collection attempts and explicit repins.
mod health {
    use std::sync::atomic::AtomicU64;

    /// Successful global-epoch advancements.
    pub static EPOCH_ADVANCES: AtomicU64 = AtomicU64::new(0);
    /// Nodes pushed into a garbage bag by `defer_destroy`.
    pub static NODES_RETIRED: AtomicU64 = AtomicU64::new(0);
    /// Retired nodes whose destructor has run.
    pub static NODES_FREED: AtomicU64 = AtomicU64::new(0);
    /// Bag collections that skipped the scan via the bag's cached minimum
    /// stamp (nothing old enough to free); a sweep counts one per bag.
    pub static MIN_STAMP_SKIPS: AtomicU64 = AtomicU64::new(0);
    /// Explicit `Guard::repin` calls that actually cycled the slot.
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
pub fn reclamation_stats() -> ReclamationStats {
    ReclamationStats {
        epoch_advances: health::EPOCH_ADVANCES.load(Ordering::Relaxed),
        nodes_retired: health::NODES_RETIRED.load(Ordering::Relaxed),
        nodes_freed: health::NODES_FREED.load(Ordering::Relaxed),
        min_stamp_skips: health::MIN_STAMP_SKIPS.load(Ordering::Relaxed),
        repins: health::REPINS.load(Ordering::Relaxed),
        bag_depth_hwm: health::BAG_DEPTH_HWM.load(Ordering::Relaxed),
        bound_trips: health::BOUND_TRIPS.load(Ordering::Relaxed),
        bound_escalations: health::BOUND_ESCALATIONS.load(Ordering::Relaxed),
    }
}

/// The current global epoch (diagnostic; free-running since process start).
pub fn global_epoch() -> usize {
    GLOBAL_EPOCH.load(Ordering::Relaxed)
}

/// One registered thread: the epoch it is pinned at, or [`NOT_PINNED`].
struct Slot {
    state: AtomicUsize,
}

/// All registered threads.  Locked only to register/deregister a thread and
/// to scan during collection.
static REGISTRY: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// One thread's retired nodes, stamped with the global epoch at retirement,
/// plus the smallest stamp present: a collection first checks the cached
/// minimum and returns in O(1) when no entry can be freed yet, so a burst of
/// retirements during a stalled epoch (pinned readers) does not degenerate
/// into an O(n) scan per retirement.
struct EpochBag {
    items: Vec<(usize, Deferred)>,
    min_stamp: usize,
}

impl Default for EpochBag {
    fn default() -> Self {
        EpochBag { items: Vec::new(), min_stamp: usize::MAX }
    }
}

impl Bag for EpochBag {
    type Item = (usize, Deferred);

    fn push(&mut self, item: (usize, Deferred)) {
        self.min_stamp = self.min_stamp.min(item.0);
        self.items.push(item);
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

impl EpochBag {
    /// Frees every entry retired at least two epochs before `now`.
    fn collect(&mut self, now: usize) {
        if self.min_stamp.saturating_add(2) > now {
            // Nothing is old enough yet: skip the scan entirely.
            health::MIN_STAMP_SKIPS.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut new_min = usize::MAX;
        let mut freed = 0u64;
        let mut i = 0;
        while i < self.items.len() {
            if self.items[i].0 + 2 <= now {
                let (_, d) = self.items.swap_remove(i);
                // SAFETY: retired at least two epochs before `now`, so no
                // thread pinned then is still pinned (module docs).
                unsafe { d.run() };
                freed += 1;
            } else {
                new_min = new_min.min(self.items[i].0);
                i += 1;
            }
        }
        self.min_stamp = new_min;
        if freed > 0 {
            health::NODES_FREED.fetch_add(freed, Ordering::Relaxed);
        }
    }
}

/// Every thread's bag, live or orphaned.
static BAGS: BagList<EpochBag> = BagList::new();

/// Per-thread participant state.
struct Local {
    slot: Arc<Slot>,
    bag: OwnBag<EpochBag>,
    /// Re-entrant pin depth; the slot is written only at depth 0 -> 1.
    pin_depth: Cell<usize>,
    /// Total pins, used to sample collection attempts.
    pin_count: Cell<u64>,
}

impl Local {
    fn register() -> Local {
        let slot = Arc::new(Slot { state: AtomicUsize::new(NOT_PINNED) });
        REGISTRY.lock().expect("ebr registry poisoned").push(Arc::clone(&slot));
        Local { slot, bag: BAGS.register(), pin_depth: Cell::new(0), pin_count: Cell::new(0) }
    }

    fn pin(&self) {
        if self.pin_depth.get() == 0 {
            // Publish the epoch we claim to have observed, then re-check that
            // it is still current: if an advancement raced with the store, the
            // stale claim could otherwise let a second advancement free nodes
            // this thread is about to read.
            //
            // The store and the loads are relaxed; the SeqCst fence between
            // them is what matters.  It places the slot publication before the
            // re-check load in the fence total order, and the collector's
            // SeqCst slot scans order against the same fence — so a collector
            // that advances past this pin must have scanned the slot after the
            // publication (crossbeam's scheme).
            loop {
                let e = GLOBAL_EPOCH.load(Ordering::Relaxed);
                self.slot.state.store(e, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if GLOBAL_EPOCH.load(Ordering::Relaxed) == e {
                    break;
                }
            }
            let c = self.pin_count.get().wrapping_add(1);
            self.pin_count.set(c);
            if c % PINS_PER_COLLECT == 0 {
                self.collect_on_cadence(c);
            }
        }
        self.pin_depth.set(self.pin_depth.get() + 1);
    }

    /// The pin cadence's collection, kept out of line so the pin fast path
    /// stays small enough to inline its thread-local access.
    #[cold]
    #[inline(never)]
    fn collect_on_cadence(&self, pin_count: u64) {
        collect_local(&self.bag);
        if pin_count % (4 * PINS_PER_COLLECT) == 0 {
            let now = GLOBAL_EPOCH.load(Ordering::SeqCst);
            BAGS.sweep_orphans(|b| b.collect(now));
        }
    }

    fn unpin(&self) {
        let d = self.pin_depth.get();
        debug_assert!(d > 0, "unpin without matching pin");
        self.pin_depth.set(d - 1);
        if d == 1 {
            // Release: everything this thread read/wrote while pinned happens
            // before a collector that observes the slot as unpinned.
            self.slot.state.store(NOT_PINNED, Ordering::Release);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: withdraw from the registry so a dead thread cannot
        // block epoch advancement forever.  The bag stays registered as an
        // orphan — sweeps drain and prune it.
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.retain(|s| !Arc::ptr_eq(s, &self.slot));
        }
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// Attempts one epoch advancement and returns the epoch after the attempt.
///
/// Uses `try_lock`: a contended registry skips the advance, so the caller
/// never blocks on another thread's collection.
fn try_advance() -> usize {
    let e = GLOBAL_EPOCH.load(Ordering::SeqCst);
    let can_advance = match REGISTRY.try_lock() {
        Ok(registry) => registry.iter().all(|s| {
            let st = s.state.load(Ordering::SeqCst);
            st == NOT_PINNED || st == e
        }),
        Err(_) => false,
    };
    // A racing advance is fine; the epoch only needs to be monotonic.
    if can_advance
        && GLOBAL_EPOCH.compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    {
        health::EPOCH_ADVANCES.fetch_add(1, Ordering::Relaxed);
    }
    GLOBAL_EPOCH.load(Ordering::SeqCst)
}

/// Local-scope collect: advance if possible, then free what the calling
/// thread's own bag holds that is old enough.
fn collect_local(bag: &OwnBag<EpochBag>) {
    let now = try_advance();
    bag.collect(|b| b.collect(now));
}

/// Global-scope collect: advance if possible, then sweep every bag,
/// orphans included.
fn collect_global() {
    let now = try_advance();
    BAGS.sweep(|b| b.collect(now));
}

/// Pins the current thread and returns a guard; shared nodes may be read for
/// as long as the guard lives.
pub fn pin() -> Guard {
    LOCAL.with(Local::pin);
    Guard { protected: true, _not_send: PhantomData }
}

/// Returns a dummy guard for contexts with exclusive access (constructors and
/// destructors).  Deferred destructions on this guard run immediately.
///
/// # Safety
///
/// The caller must guarantee that no other thread is accessing the data
/// structure concurrently.
pub unsafe fn unprotected() -> &'static Guard {
    struct SyncGuard(Guard);
    unsafe impl Sync for SyncGuard {}
    static UNPROTECTED: SyncGuard = SyncGuard(Guard { protected: false, _not_send: PhantomData });
    &UNPROTECTED.0
}

/// A pinned-epoch guard.  Dropping it unpins the thread.
pub struct Guard {
    protected: bool,
    /// Guards are tied to the pinning thread.
    _not_send: PhantomData<*mut ()>,
}

impl Guard {
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
        let deferred = Deferred::new(raw, "ebr");
        let stamp = GLOBAL_EPOCH.load(Ordering::SeqCst);
        LOCAL.with(|local| {
            let len = local.bag.push((stamp, deferred));
            health::NODES_RETIRED.fetch_add(1, Ordering::Relaxed);
            bags::raise_hwm(&health::BAG_DEPTH_HWM, pending_depth() as u64);
            if bound::deferring() {
                // Inside a batch-retire window: the window's close runs one
                // high-water collect and one bound ladder for the whole batch.
                return;
            }
            if len >= BAG_HIGH_WATER {
                collect_local(&local.bag);
            }
            settle_bound(local);
        });
    }

    /// Forces a **global** collection attempt: every thread's bag plus the
    /// orphans, best effort, non-blocking.
    pub fn flush(&self) {
        collect_global();
    }

    /// Momentarily unpins and re-pins the guard's thread at the current epoch
    /// so that epoch advancement (and therefore reclamation) can make progress
    /// while a long-lived guard is held.
    ///
    /// Any `Shared` pointers loaded before the call must not be dereferenced
    /// afterwards: the unpin window allows their nodes to be reclaimed.  On a
    /// nested pin (another guard of the same thread is alive) this is a no-op,
    /// matching `crossbeam-epoch`.
    pub fn repin(&mut self) {
        if self.protected {
            health::REPINS.fetch_add(1, Ordering::Relaxed);
            LOCAL.with(|local| {
                local.unpin();
                local.pin();
            });
        }
    }
}

impl ReclaimGuard for Guard {
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
    fn protect_load<F: FnMut() -> usize>(&self, mut load: F) -> usize {
        // Epoch pins protect everything reachable for the whole pin: a plain
        // load already carries the dereference license.
        load()
    }

    #[inline]
    fn protect_current_era(&self) {
        // Same reason: fresh allocations are protected by the pin itself.
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
            LOCAL.with(|local| {
                if local.bag.len() >= BAG_HIGH_WATER {
                    collect_local(&local.bag);
                }
                settle_bound(local);
            });
        }
        out
    }
}

/// Over the configured garbage ceiling: escalate on the writer's dime (the
/// [`crate::GarbageBound`] ladder).  Every step retries the epoch advance a
/// stalled reader may be blocking; the global steps also free what other
/// threads' bags hold.
fn settle_bound(local: &Local) {
    if bound::over(pending_depth()) {
        bound::enforce(
            &pending_depth,
            &|| collect_local(&local.bag),
            &collect_global,
            &health::BOUND_TRIPS,
            &health::BOUND_ESCALATIONS,
        );
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard").field("protected", &self.protected).finish()
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.protected {
            LOCAL.with(Local::unpin);
        }
    }
}

/// The epoch-based backend as a [`Reclaimer`] (the workspace default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ebr;

impl Reclaimer for Ebr {
    type Guard = Guard;

    const NAME: &'static str = "ebr";

    fn pin() -> Guard {
        pin()
    }

    unsafe fn unprotected() -> &'static Guard {
        unprotected()
    }

    fn collect() {
        collect_global();
    }

    fn stats() -> ReclamationStats {
        reclamation_stats()
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

    #[test]
    fn global_epoch_owns_its_cache_lines() {
        let addr = &GLOBAL_EPOCH as *const OwnLine as usize;
        assert_eq!(addr % 128, 0, "GLOBAL_EPOCH starts a 128-byte block");
        assert_eq!(std::mem::size_of::<OwnLine>(), 128, "and fills it");
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
        let guard = unsafe { unprotected() };
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
            let guard = pin();
            let p = Owned::new(NoteDrop(Arc::clone(&drops))).into_shared(&guard);
            unsafe { guard.defer_destroy(p) };
            // Still pinned: must not run yet.
            assert_eq!(drops.load(Ordering::SeqCst), 0);
        }
        // Epoch advancement needs a few unpinned collection attempts.
        for _ in 0..6 * PINS_PER_COLLECT {
            drop(pin());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let _serial = crate::serial_test();
        use std::sync::mpsc;
        let a = Arc::new(Atomic::new(41u64));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let guard = pin();
                let p = a.load(Ordering::SeqCst, &guard);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                // The node must still be readable: the writer retired it while
                // this guard was live.
                assert_eq!(unsafe { *p.deref() }, 41);
            })
        };
        ready_rx.recv().unwrap();
        {
            let guard = pin();
            let old = a.load(Ordering::SeqCst, &guard);
            let new = Owned::new(42u64).into_shared(&guard);
            a.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst, &guard).unwrap();
            unsafe { guard.defer_destroy(old) };
        }
        for _ in 0..6 * PINS_PER_COLLECT {
            drop(pin());
        }
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        let guard = pin();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }

    /// No explicit collect: the surviving thread's pin cadence alone must
    /// drain the bag an exited thread left behind.
    #[test]
    fn orphaned_garbage_drains_on_the_pin_cadence() {
        let _serial = crate::serial_test();
        let before = reclamation_stats();
        std::thread::spawn(|| {
            let guard = pin();
            for i in 0..100u64 {
                let p = Owned::new(i).into_shared(&guard);
                unsafe { guard.defer_destroy(p) };
            }
        })
        .join()
        .unwrap();
        for _ in 0..12 * PINS_PER_COLLECT {
            drop(pin());
        }
        let delta = reclamation_stats().since(&before);
        assert_eq!(delta.nodes_retired, 100);
        assert_eq!(delta.nodes_freed, 100, "orphaned garbage never drained: {delta:?}");
    }

    #[test]
    fn reclamation_stats_track_retire_free_cycle() {
        let _serial = crate::serial_test();
        // Counters are process-global and other tests run concurrently, so
        // assert on deltas and lower bounds only.
        let before = reclamation_stats();
        {
            let guard = pin();
            let p = Owned::new(123u64).into_shared(&guard);
            unsafe { guard.defer_destroy(p) };
        }
        for _ in 0..6 * PINS_PER_COLLECT {
            drop(pin());
        }
        let mut guard = pin();
        guard.repin();
        drop(guard);
        let delta = reclamation_stats().since(&before);
        assert!(delta.nodes_retired >= 1, "retired: {delta:?}");
        assert!(delta.nodes_freed >= 1, "freed: {delta:?}");
        assert!(delta.epoch_advances >= 2, "advances: {delta:?}");
        assert!(delta.repins >= 1, "repins: {delta:?}");
        // The high-water mark saw at least one pending node and never shrinks
        // below the point-in-time depth.
        assert!(delta.bag_depth_hwm >= 1, "hwm: {delta:?}");
        // Globally, frees never outrun retirements.
        let now = reclamation_stats();
        assert!(now.nodes_freed <= now.nodes_retired);
        assert_eq!(now.bag_depth(), now.nodes_retired - now.nodes_freed);
        let _ = global_epoch();
    }

    /// The audit must catch the second retirement of one pointer (and must
    /// not have queued it, so nothing double-frees after the panic is caught).
    #[test]
    #[cfg(any(feature = "retire-audit", debug_assertions))]
    fn double_retire_panics_under_audit() {
        let _serial = crate::serial_test();
        let guard = pin();
        let p = Owned::new(9u64).into_shared(&guard);
        unsafe { guard.defer_destroy(p) };
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            guard.defer_destroy(p)
        }));
        let msg = *second.expect_err("double retire must panic").downcast::<String>().unwrap();
        assert!(msg.contains("double retire"), "unexpected panic message: {msg}");
        // The first retirement stays queued and frees exactly once.
        drop(guard);
        for _ in 0..6 * PINS_PER_COLLECT {
            drop(pin());
        }
    }

    #[test]
    fn concurrent_churn_is_safe() {
        let _serial = crate::serial_test();
        // Hammer one atomic from several threads with swap + retire; run under
        // the normal test battery this exercises advancement and reclamation.
        let a = Arc::new(Atomic::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let guard = pin();
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
        let guard = pin();
        unsafe { drop(a.load(Ordering::SeqCst, &guard).into_owned()) };
    }
}
